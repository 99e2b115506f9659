// Package window implements the paper's stated future work (Section V): a
// sliding-window variant of TLP that partitions an edge stream while holding
// only a bounded window of unassigned edges in memory, with the stream
// producer running concurrently with the partitioner.
//
// The partitioner owns no selection rule of its own. It keeps the window's
// resident edges as a compact CSR and runs TLP's growth round
// (core.Grower) on it, so both stages, seeding and absorption are core's.
// It repeatedly (a) refills the window from the stream up to its capacity,
// (b) relabels the resident endpoints to local ids in ascending global
// order and rebuilds the CSR, (c) grows the current partition inside it by
// at most half the window while the stream still has edges, and (d) writes
// the assignments back and evicts the assigned edges. A partition that
// outgrows one window keeps its members: they start its next round in the
// rebuilt window, and the stage switch sees the partition's whole load.
// Once the stream is exhausted the last window is grown like a whole TLP
// run, so a window holding the entire graph reproduces TLP exactly.
// Decisions see only the window, so quality degrades gracefully as it
// shrinks; compared to streaming partitioners, placement still happens
// cluster-at-a-time rather than edge-at-a-time.
//
// The stream itself comes from a source.EdgeSource — in-memory, file-backed
// or generator-backed — so the partitioner's resident memory is the window
// plus O(n) relabel state, never the full edge set.
package window

import (
	"fmt"
	"slices"

	"github.com/graphpart/graphpart/internal/core"
	"github.com/graphpart/graphpart/internal/graph"
	"github.com/graphpart/graphpart/internal/obs"
	"github.com/graphpart/graphpart/internal/partition"
	"github.com/graphpart/graphpart/internal/source"
)

// StreamEdge is one edge of the input stream, carrying the EdgeID used in
// the resulting Assignment. It is the canonical source.Edge.
type StreamEdge = source.Edge

// Config tunes the sliding-window partitioner.
type Config struct {
	// Seed drives seed-vertex selection (through core's seed stream) and
	// the default stream order.
	Seed uint64
	// WindowEdges bounds the number of unassigned edges held in memory;
	// zero defaults to 4*C (four partitions' worth).
	WindowEdges int
	// Order selects how Partition streams the graph's edges; zero means
	// BFS order (the order the paper's future-work sketch prescribes).
	Order source.Order
}

// Stats reports the window behaviour of one partitioning run, making
// window-size ablations measurable.
type Stats struct {
	// PeakWindowEdges is the largest number of edges simultaneously
	// resident in the window, including the final drain.
	PeakWindowEdges int
	// Refills counts refill rounds that pulled at least one edge from the
	// stream.
	Refills int
	// StreamedEdges counts edges received from the stream.
	StreamedEdges int
	// SweptEdges counts edges the final least-load sweep had to place
	// rather than a partition's growth: later copies of a duplicate pair
	// whose twin was placed after the stream ended, and self-loops.
	SweptEdges int
	// Growth holds the statistics of every growth round of the run (one
	// core.Grower.Grow call each); selection degrees are window degrees.
	Growth core.Stats
}

// Partitioner is the sliding-window TLP variant.
type Partitioner struct {
	cfg Config
}

var (
	_ partition.Partitioner       = (*Partitioner)(nil)
	_ partition.StreamPartitioner = (*Partitioner)(nil)
)

// New returns a sliding-window partitioner.
func New(cfg Config) *Partitioner { return &Partitioner{cfg: cfg} }

// Name implements partition.Partitioner.
func (w *Partitioner) Name() string { return "TLP-SW" }

// Partition streams g's edges through the window and returns a complete
// assignment; it is PartitionStream over a graph-backed source in the
// configured order.
func (w *Partitioner) Partition(g *graph.Graph, p int) (*partition.Assignment, error) {
	if g == nil {
		return nil, fmt.Errorf("window: nil graph")
	}
	ord := w.cfg.Order
	if ord == 0 {
		ord = source.OrderBFS
	}
	return w.PartitionStream(source.FromGraph(g, ord, w.cfg.Seed), p)
}

// PartitionStream implements partition.StreamPartitioner.
func (w *Partitioner) PartitionStream(src source.EdgeSource, p int) (*partition.Assignment, error) {
	a, _, err := w.PartitionStreamStats(src, p)
	return a, err
}

// PartitionStreamStats is PartitionStream plus the window Stats of the run.
// A producer goroutine feeds the window from the source concurrently with
// the partitioner, as the paper's future-work sketch suggests.
func (w *Partitioner) PartitionStreamStats(src source.EdgeSource, p int) (*partition.Assignment, Stats, error) {
	if src == nil {
		return nil, Stats{}, fmt.Errorf("window: nil edge source")
	}
	if err := src.Reset(); err != nil {
		return nil, Stats{}, fmt.Errorf("window: resetting source: %w", err)
	}
	stream := make(chan StreamEdge, 1024)
	var produceErr error
	go func() {
		// produceErr is written before close(stream); the consumer only
		// reads it after observing the close, which the Go memory model
		// orders after this write.
		defer close(stream)
		for {
			e, ok, err := src.Next()
			if err != nil {
				produceErr = err
				return
			}
			if !ok {
				return
			}
			stream <- e
		}
	}()
	a, stats, err := w.PartitionChannel(stream, src.NumVertices(), src.NumEdges(), p)
	if err != nil {
		// Unblock the producer before returning so it never leaks.
		for range stream {
		}
		return nil, stats, err
	}
	if produceErr != nil {
		return nil, stats, fmt.Errorf("window: edge source: %w", produceErr)
	}
	return a, stats, nil
}

// PartitionChannel consumes an edge stream for a graph with the given
// vertex and edge counts, assigning every streamed edge to one of p
// partitions. Every EdgeID in [0, numEdges) must appear exactly once on the
// stream. This is the lower-level channel API; PartitionStream wires an
// EdgeSource to it.
func (w *Partitioner) PartitionChannel(stream <-chan StreamEdge, numVertices, numEdges, p int) (*partition.Assignment, Stats, error) {
	a, err := partition.New(numEdges, p)
	if err != nil {
		return nil, Stats{}, err
	}
	if numEdges == 0 {
		return a, Stats{}, nil
	}
	capC := partition.Capacity(numEdges, p)
	windowCap := w.cfg.WindowEdges
	if windowCap <= 0 {
		windowCap = 4 * capC // four partitions' worth of context
	}
	windowCap = max(windowCap, 16)
	sp := obs.Start("tlpsw.partition", obs.Int("p", p),
		obs.Int("edges", numEdges), obs.Int("window_cap", windowCap))
	win := &resident{stream: stream, capacity: windowCap, numEdges: numEdges,
		local: make([]graph.Vertex, numVertices)}
	for v := range win.local {
		win.local[v] = -1
	}
	win.refill(&sp)
	if _, err := win.rebuild(p, nil); err != nil {
		return nil, Stats{}, err
	}
	gr, err := core.NewGrower(win.g, win.la, core.Options{Seed: w.cfg.Seed})
	if err != nil {
		return nil, Stats{}, err
	}
	for k := 0; k < p; k++ {
		gsp := sp.Child("tlpsw.grow", obs.Int("k", k))
		var start []graph.Vertex // members carried into the rebuilt window
		load := 0
		for load < capC {
			room := capC - load
			if !win.done {
				// Leave the other half of the window to the refill, so
				// the partition's next round sees new context.
				room = min(room, max(1, len(win.edges)/2))
			}
			n := gr.Grow(k, room, start, &gsp)
			if n == 0 {
				break // nothing left in the window, and the stream is done
			}
			load += n
			start = nil
			if !win.done {
				members := win.global(gr.Members())
				win.slide(a, &sp)
				if start, err = win.rebuild(p, members); err != nil {
					return nil, Stats{}, err
				}
				gr.Rebind(win.g, win.la)
			}
		}
		gsp.EndWith(obs.Int("ein", load), obs.Int("window", len(win.edges)))
	}
	// Any edges still unassigned (see Stats.SweptEdges) sweep to the
	// lightest loads.
	ssp := sp.Child("tlpsw.sweep")
	win.writeBack(a)
	win.drain()
	if win.err != nil {
		return nil, Stats{}, win.err
	}
	stats := Stats{
		PeakWindowEdges: win.peak,
		Refills:         win.refills,
		StreamedEdges:   win.streamed,
		SweptEdges:      partition.AssignLeftovers(a),
		Growth:          gr.Stats(),
	}
	ssp.EndWith(obs.Int("swept", stats.SweptEdges))
	recordRunMetrics(&stats)
	sp.EndWith(obs.Int("peak_window", stats.PeakWindowEdges),
		obs.Int("refills", stats.Refills), obs.Int("streamed", stats.StreamedEdges))
	return a, stats, nil
}

// resident is the window: the unassigned edges held in memory, in stream
// order, and the compact CSR of them that the grower runs on.
type resident struct {
	stream   <-chan StreamEdge
	capacity int
	numEdges int
	// done is set once every edge has been streamed or the stream closed.
	done  bool
	edges []StreamEdge

	// local[v] is global vertex v's id in g, or -1 when v has no resident
	// edge; verts[l] is local vertex l's global id, and gid[e] local edge
	// e's global id.
	local []graph.Vertex
	verts []graph.Vertex
	gid   []graph.EdgeID
	g     *graph.Graph
	la    *partition.Assignment

	peak, refills, streamed int
	err                     error // the first malformed streamed edge
}

// refill pulls edges from the stream until the window holds its capacity or
// the stream is done. sp is the run's trace span; refills that pulled edges
// are recorded on it as instants (record-only).
func (r *resident) refill(sp *obs.Span) {
	pulled := false
	for len(r.edges) < r.capacity && !r.done {
		e, ok := <-r.stream
		if !ok {
			r.done = true
			break
		}
		r.push(e)
		r.done = r.streamed == r.numEdges
		pulled = true
	}
	if pulled {
		r.refills++
		sp.Event("tlpsw.refill", obs.Int("window", len(r.edges)), obs.Int("streamed", r.streamed))
	}
	r.peak = max(r.peak, len(r.edges))
}

// drain consumes the rest of the stream into the window, so the producer's
// close is observed before the run returns.
func (r *resident) drain() {
	for e := range r.stream {
		r.push(e)
	}
	r.peak = max(r.peak, len(r.edges))
}

// push makes a streamed edge resident. An edge naming a vertex or edge id
// outside the declared counts is dropped and recorded as the run's error.
func (r *resident) push(e StreamEdge) {
	r.streamed++
	if e.U < 0 || int(e.U) >= len(r.local) || e.V < 0 || int(e.V) >= len(r.local) ||
		e.ID < 0 || int(e.ID) >= r.numEdges {
		if r.err == nil {
			r.err = fmt.Errorf("window: streamed edge %d (%d, %d) outside %d vertices and %d edges",
				e.ID, e.U, e.V, len(r.local), r.numEdges)
		}
		return
	}
	r.edges = append(r.edges, e)
}

// rebuild relabels the resident endpoints to local ids in ascending global
// order and builds the CSR of the resident edges sorted by local (U, V), so
// local edge ids follow global edge-id order on a graph-backed stream. A CSR
// holds each pair once: copies of a pair after its first in stream order,
// and self-loops, stay resident outside it, and a copy enters a later
// rebuild once its twin is evicted. It returns the carried members that
// are still resident, in local ids.
func (r *resident) rebuild(p int, carry []graph.Vertex) ([]graph.Vertex, error) {
	for _, v := range r.verts {
		r.local[v] = -1
	}
	r.verts = r.verts[:0]
	for _, e := range r.edges {
		for _, v := range [2]graph.Vertex{e.U, e.V} {
			if r.local[v] < 0 {
				r.local[v] = 0
				r.verts = append(r.verts, v)
			}
		}
	}
	slices.Sort(r.verts)
	for l, v := range r.verts {
		r.local[v] = graph.Vertex(l)
	}
	// Two stable counting passes over the local ids, by V and then by U,
	// sort the edges by local (U, V) in linear time and keep the stream
	// order among the copies of a pair.
	sorted := make([]StreamEdge, len(r.edges))
	for i, e := range r.edges {
		u, v := r.local[e.U], r.local[e.V]
		sorted[i] = StreamEdge{ID: e.ID, U: min(u, v), V: max(u, v)}
	}
	scratch := make([]StreamEdge, len(sorted))
	countingSort(sorted, scratch, len(r.verts), func(e StreamEdge) graph.Vertex { return e.V })
	countingSort(scratch, sorted, len(r.verts), func(e StreamEdge) graph.Vertex { return e.U })
	edges := make([]graph.Edge, 0, len(sorted))
	r.gid = r.gid[:0]
	for i, e := range sorted {
		if e.U == e.V || (i > 0 && e.U == sorted[i-1].U && e.V == sorted[i-1].V) {
			continue
		}
		edges = append(edges, graph.Edge{U: e.U, V: e.V})
		r.gid = append(r.gid, e.ID)
	}
	g, err := graph.FromEdges(len(r.verts), edges)
	if err != nil {
		return nil, fmt.Errorf("window: building the resident CSR: %w", err)
	}
	if r.la, err = partition.New(len(edges), p); err != nil {
		return nil, err
	}
	r.g = g
	var start []graph.Vertex
	for _, v := range carry {
		if l := r.local[v]; l >= 0 {
			start = append(start, l)
		}
	}
	return start, nil
}

// countingSort stably scatters src into dst by key, which lies in [0, n).
func countingSort(src, dst []StreamEdge, n int, key func(StreamEdge) graph.Vertex) {
	next := make([]int, n+1)
	for _, e := range src {
		next[key(e)+1]++
	}
	for i := 1; i <= n; i++ {
		next[i] += next[i-1]
	}
	for _, e := range src {
		k := key(e)
		dst[next[k]] = e
		next[k]++
	}
}

// global maps local vertex ids to global ids in place.
func (r *resident) global(vs []graph.Vertex) []graph.Vertex {
	for i, v := range vs {
		vs[i] = r.verts[v]
	}
	return vs
}

// writeBack copies the grower's assignments into a, once per rebuild.
func (r *resident) writeBack(a *partition.Assignment) {
	for e, id := range r.gid {
		if k, ok := r.la.PartitionOf(graph.EdgeID(e)); ok {
			a.Assign(id, k)
		}
	}
	r.gid = r.gid[:0]
}

// slide writes the grower's assignments back, evicts the assigned edges and
// refills the window.
func (r *resident) slide(a *partition.Assignment, sp *obs.Span) {
	r.writeBack(a)
	r.edges = slices.DeleteFunc(r.edges, func(e StreamEdge) bool { return a.IsAssigned(e.ID) })
	r.refill(sp)
}
