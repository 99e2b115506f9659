package metis

import (
	"cmp"
	"fmt"
	"math"

	"github.com/graphpart/graphpart/internal/graph"
	"github.com/graphpart/graphpart/internal/partition"
	"github.com/graphpart/graphpart/internal/rng"
	"github.com/graphpart/graphpart/internal/source"
)

// Config tunes the multilevel partitioner. The zero value uses defaults
// comparable to METIS's own: coarsen to ~128 vertices, 5% imbalance, 8 FM
// passes per level, 4 initial-partition trials. A zero field selects its
// default; a negative count or a non-finite ImbalanceTol makes partitioning
// fail.
type Config struct {
	// Seed drives matching order, initial-partition seeds and tie-breaks.
	Seed uint64
	// CoarsenTo stops coarsening when the graph has at most this many
	// vertices (default 128).
	CoarsenTo int
	// ImbalanceTol is the allowed multiplicative vertex-weight imbalance
	// per bisection (default 1.05).
	ImbalanceTol float64
	// FMPasses bounds refinement passes per level (default 8).
	FMPasses int
	// InitialTrials is the number of greedy-growing attempts at the
	// coarsest level (default 4).
	InitialTrials int
}

// validate rejects the fields withDefaults must not reinterpret: a
// non-finite tolerance would make every FM move infeasible.
func (c Config) validate() error {
	if c.CoarsenTo < 0 || c.FMPasses < 0 || c.InitialTrials < 0 ||
		math.IsNaN(c.ImbalanceTol) || math.IsInf(c.ImbalanceTol, 0) {
		return fmt.Errorf("metis: config needs non-negative counts and a finite imbalance tolerance: %+v", c)
	}
	return nil
}

// withDefaults fills zero fields (validate has rejected negative ones).
func (c Config) withDefaults() Config {
	c.CoarsenTo = cmp.Or(c.CoarsenTo, 128)
	c.FMPasses = cmp.Or(c.FMPasses, 8)
	c.InitialTrials = cmp.Or(c.InitialTrials, 4)
	if c.ImbalanceTol <= 1 {
		c.ImbalanceTol = 1.05
	}
	return c
}

// Partitioner is the METIS-style offline baseline, adapted to the edge
// partitioning problem by deriving edge placements from the vertex
// partition (see DeriveEdgePartition).
type Partitioner struct {
	cfg Config
	err error // the configuration's validation error, reported per call
}

var _ partition.Partitioner = (*Partitioner)(nil)

// New returns a multilevel partitioner with the given configuration.
func New(cfg Config) *Partitioner {
	return &Partitioner{cfg: cfg.withDefaults(), err: cfg.validate()}
}

// Name implements partition.Partitioner. The algorithm is a from-scratch
// METIS-style multilevel scheme; the paper's evaluation labels it METIS.
func (m *Partitioner) Name() string { return "METIS" }

// Partition computes a vertex partition of g and derives a balanced edge
// partitioning from it.
func (m *Partitioner) Partition(g *graph.Graph, p int) (*partition.Assignment, error) {
	labels, err := m.VertexPartition(g, p)
	if err != nil {
		return nil, err
	}
	return DeriveEdgePartition(source.FromGraph(g, source.OrderNatural, 0), labels, p)
}

// VertexPartition returns part labels in [0, p) for every vertex of g,
// computed by multilevel recursive bisection.
func (m *Partitioner) VertexPartition(g *graph.Graph, p int) ([]int32, error) {
	if m.err != nil {
		return nil, m.err
	}
	if g == nil {
		return nil, fmt.Errorf("metis: nil graph")
	}
	if p < 1 {
		return nil, fmt.Errorf("metis: need at least one partition, got %d", p)
	}
	if p == 1 || g.NumVertices() == 0 {
		return make([]int32, g.NumVertices()), nil
	}
	return m.partitionWGraph(fromGraph(g), p), nil
}

// partitionWGraph labels the vertices of a level-0 graph with parts in
// [0, p) by recursive bisection.
func (m *Partitioner) partitionWGraph(w *wgraph, p int) []int32 {
	labels := make([]int32, w.numVertices())
	verts := make([]int32, len(labels))
	for i := range verts {
		verts[i] = int32(i)
	}
	r := rng.New(m.cfg.Seed ^ 0x4d455449) // "METI"
	m.recursiveBisect(w, verts, p, 0, labels, r, &arena{})
	return labels
}

// recursiveBisect splits the subgraph induced on verts (vertex ids of w
// refer to positions in verts) into p parts, writing labels[origID] values
// in [base, base+p).
//
// w must be the weighted graph of exactly the verts subset (w vertex i
// corresponds to verts[i]).
func (m *Partitioner) recursiveBisect(w *wgraph, verts []int32, p int, base int32, labels []int32, r *rng.RNG, a *arena) {
	if p == 1 || w.numVertices() == 0 {
		for _, orig := range verts {
			labels[orig] = base
		}
		return
	}
	p0 := (p + 1) / 2
	p1 := p - p0
	total := w.totalVertexWeight()
	target0 := total * int64(p0) / int64(p)
	// side lives in the arena: it must be consumed before the recursion
	// below bisects again.
	side := m.bisect(w, target0, r, a)
	sub0, verts0 := inducedWGraph(w, verts, side, 0, a)
	sub1, verts1 := inducedWGraph(w, verts, side, 1, a)
	m.recursiveBisect(sub0, verts0, p0, base, labels, r, a)
	m.recursiveBisect(sub1, verts1, p1, base+int32(p0), labels, r, a)
}

// bisect runs the multilevel V-cycle on w: coarsen, initial partition,
// uncoarsen with refinement. The returned side is an arena buffer.
func (m *Partitioner) bisect(w *wgraph, target0 int64, r *rng.RNG, a *arena) []uint8 {
	cfg := m.cfg
	// Coarsening phase.
	a.level(0).g = w
	a.fm.reserve(w.numVertices())
	depth := 1
	cur := w
	totalW := w.totalVertexWeight()
	// Cap coarse vertex weight so one mega-vertex cannot block balance.
	maxVWgt := totalW / int64(cfg.CoarsenTo)
	if maxVWgt < 1 {
		maxVWgt = 1
	}
	for cur.numVertices() > cfg.CoarsenTo {
		match, coarseN := heavyEdgeMatching(cur, r, maxVWgt, a)
		if coarseN >= cur.numVertices()*97/100 {
			break // matching stalled; stop coarsening
		}
		coarse := a.level(depth).g
		fine := a.level(depth - 1)
		fine.coarseOf = grow(fine.coarseOf, cur.numVertices())
		contract(cur, match, coarseN, coarse, fine.coarseOf, &a.cs)
		depth++
		cur = coarse
	}
	// Initial partition at the coarsest level.
	side := greedyGrow(cur, target0, r, cfg.InitialTrials)
	refineFM(cur, side, target0, cfg.ImbalanceTol, cfg.FMPasses, &a.fm)
	// Uncoarsening with refinement, projecting into alternate buffers.
	for li := depth - 2; li >= 0; li-- {
		fine := a.levels[li]
		a.sides[li&1] = grow(a.sides[li&1], fine.g.numVertices())
		fineSide := a.sides[li&1]
		for v := range fineSide {
			fineSide[v] = side[fine.coarseOf[v]]
		}
		refineFM(fine.g, fineSide, target0, cfg.ImbalanceTol, cfg.FMPasses, &a.fm)
		side = fineSide
	}
	a.levels[0].g = nil // the input belongs to the caller
	return side
}

// inducedWGraph extracts the side-s induced weighted subgraph, returning it
// together with the original vertex ids of its vertices.
func inducedWGraph(w *wgraph, verts []int32, side []uint8, s uint8, a *arena) (*wgraph, []int32) {
	n := w.numVertices()
	a.newID = grow(a.newID, n)
	newID := a.newID
	cnt, arcs := int32(0), 0
	for v := 0; v < n; v++ {
		if side[v] != s {
			continue
		}
		newID[v] = cnt
		cnt++
		nbrs, _ := w.neighbors(int32(v))
		for _, u := range nbrs {
			if side[u] == s {
				arcs++
			}
		}
	}
	sub := &wgraph{
		offsets: make([]int32, cnt+1),
		adj:     make([]int32, arcs),
		wadj:    make([]int32, arcs),
		vwgt:    make([]int32, cnt),
	}
	subVerts := make([]int32, cnt)
	pos := int32(0)
	for v := 0; v < n; v++ {
		if side[v] != s {
			continue
		}
		nv := newID[v]
		subVerts[nv] = verts[v]
		sub.offsets[nv] = pos
		sub.vwgt[nv] = w.vwgt[v]
		nbrs, wts := w.neighbors(int32(v))
		for i, u := range nbrs {
			if side[u] == s {
				sub.adj[pos] = newID[u]
				sub.wadj[pos] = wts[i]
				pos++
			}
		}
	}
	sub.offsets[cnt] = pos
	return sub, subVerts
}

// DeriveEdgePartition assigns every edge of src, in stream order, to the
// part of one of its endpoints, choosing the endpoint whose part currently
// holds fewer edges. This is the standard adaptation used when a vertex
// partitioner serves as an edge-partitioning baseline, and the one copy of
// that rule: every vertex-partition baseline reaches it, graph paths through
// source.FromGraph in natural (EdgeID) order, stream paths through their own
// source. RF stays low because edges follow the vertex cut, while edge loads
// balance greedily. Loads are NOT guaranteed to meet the strict capacity C
// (vertex partitioners balance vertices, not edges); callers validating the
// result should allow slack.
func DeriveEdgePartition(src source.EdgeSource, labels []int32, p int) (*partition.Assignment, error) {
	if len(labels) != src.NumVertices() {
		return nil, fmt.Errorf("metis: %d labels for %d vertices", len(labels), src.NumVertices())
	}
	a, err := partition.New(src.NumEdges(), p)
	if err != nil {
		return nil, err
	}
	if err := src.Reset(); err != nil {
		return nil, fmt.Errorf("metis: resetting source: %w", err)
	}
	for {
		e, ok, err := src.Next()
		if err != nil {
			return nil, fmt.Errorf("metis: reading source: %w", err)
		}
		if !ok {
			return a, nil
		}
		ku, kv := labels[e.U], labels[e.V]
		if ku < 0 || int(ku) >= p || kv < 0 || int(kv) >= p {
			return nil, fmt.Errorf("metis: label out of range for edge %d", e.ID)
		}
		k := ku
		if ku != kv && a.Load(int(kv)) < a.Load(int(ku)) {
			k = kv
		}
		a.Assign(e.ID, int(k))
	}
}
