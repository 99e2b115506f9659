// Package streaming implements the streaming baselines of the paper's
// evaluation — LDG, DBH and Random — plus the standard streaming edge
// partitioners PowerGraph-Greedy and HDRF as extensions.
//
// Edge streamers (Random, DBH, Greedy, HDRF) place each edge as it arrives
// and never move it; they consume an arbitrary source.EdgeSource in
// O(p + vertex-state) memory, so file-backed and generator-backed streams
// partition without a CSR. Vertex streamers (LDG, FENNEL) place vertices in
// a seeded random order, reading each vertex's adjacency from the CSR, and
// derive the edge placement the same way as for the METIS baseline; they
// need the whole graph in memory. All algorithms are deterministic for a
// fixed seed; the stream order of a graph-backed run is a seeded shuffle of
// the edge list unless configured otherwise.
package streaming

import (
	"fmt"
	"math/bits"

	"github.com/graphpart/graphpart/internal/graph"
	"github.com/graphpart/graphpart/internal/partition"
	"github.com/graphpart/graphpart/internal/rng"
	"github.com/graphpart/graphpart/internal/source"
)

// Order selects how the stream is sequenced; it is the canonical
// source.Order, re-exported so existing callers keep compiling.
type Order = source.Order

const (
	// OrderShuffled streams edges/vertices in a seeded random order
	// (the common evaluation setting; arrival order is adversarial
	// otherwise).
	OrderShuffled = source.OrderShuffled
	// OrderNatural streams in EdgeID/vertex-id order.
	OrderNatural = source.OrderNatural
	// OrderBFS streams in breadth-first order from a seeded random root,
	// component by component (matches how crawled graphs arrive).
	OrderBFS = source.OrderBFS
)

// replicaSets tracks, per vertex, the set of partitions holding a replica,
// as w = ceil(p/64) words per vertex (one word in the paper's p <= 64
// regime), the layout of the partition package's presence kernel.
type replicaSets struct {
	w    int
	bits []uint64 // bits[v*w+k/64] bit k%64: partition k holds a replica of v
}

func newReplicaSets(n, p int) *replicaSets {
	w := (p + 63) / 64
	return &replicaSets{w: w, bits: make([]uint64, n*w)}
}

// at returns the index of the word holding v's bit for partition k, and
// that bit.
func (rs *replicaSets) at(v graph.Vertex, k int) (int, uint64) {
	return int(v)*rs.w + k>>6, 1 << uint(k&63)
}

func (rs *replicaSets) add(v graph.Vertex, k int) {
	i, bit := rs.at(v, k)
	rs.bits[i] |= bit
}

func (rs *replicaSets) has(v graph.Vertex, k int) bool {
	i, bit := rs.at(v, k)
	return rs.bits[i]&bit != 0
}

func (rs *replicaSets) count(v graph.Vertex) int {
	c := 0
	for _, word := range rs.bits[int(v)*rs.w : (int(v)+1)*rs.w] {
		c += bits.OnesCount64(word)
	}
	return c
}

// validateInput checks inputs shared by the graph-based entry points.
func validateInput(g *graph.Graph, p int) error {
	if g == nil {
		return fmt.Errorf("streaming: nil graph")
	}
	if p < 1 {
		return fmt.Errorf("streaming: need at least one partition, got %d", p)
	}
	return nil
}

// validateSource checks inputs shared by the stream entry points.
func validateSource(src source.EdgeSource, p int) error {
	if src == nil {
		return fmt.Errorf("streaming: nil edge source")
	}
	if p < 1 {
		return fmt.Errorf("streaming: need at least one partition, got %d", p)
	}
	return nil
}

// forEachEdge resets src and applies fn to every edge.
func forEachEdge(src source.EdgeSource, fn func(e source.Edge)) error {
	if err := src.Reset(); err != nil {
		return fmt.Errorf("streaming: resetting source: %w", err)
	}
	for {
		e, ok, err := src.Next()
		if err != nil {
			return fmt.Errorf("streaming: reading source: %w", err)
		}
		if !ok {
			return nil
		}
		fn(e)
	}
}

// Random assigns each edge to a uniformly random partition (hash of the
// edge id), the paper's lower-bound baseline.
type Random struct {
	seed uint64
}

var (
	_ partition.Partitioner       = (*Random)(nil)
	_ partition.StreamPartitioner = (*Random)(nil)
)

// NewRandom returns the Random baseline.
func NewRandom(seed uint64) *Random { return &Random{seed: seed} }

// Name implements partition.Partitioner.
func (x *Random) Name() string { return "Random" }

// Partition implements partition.Partitioner.
func (x *Random) Partition(g *graph.Graph, p int) (*partition.Assignment, error) {
	if err := validateInput(g, p); err != nil {
		return nil, err
	}
	return x.PartitionStream(source.FromGraph(g, source.OrderNatural, x.seed), p)
}

// PartitionStream implements partition.StreamPartitioner. The placement is
// a pure hash of the edge id, so it is independent of arrival order and
// identical to the graph path. Memory: O(p) beyond the assignment.
func (x *Random) PartitionStream(src source.EdgeSource, p int) (*partition.Assignment, error) {
	if err := validateSource(src, p); err != nil {
		return nil, err
	}
	a, err := partition.New(src.NumEdges(), p)
	if err != nil {
		return nil, err
	}
	err = forEachEdge(src, func(e source.Edge) {
		a.Assign(e.ID, int(rng.Hash2(x.seed, uint64(e.ID))%uint64(p)))
	})
	if err != nil {
		return nil, err
	}
	return a, nil
}

// DBH is degree-based hashing (Xie et al., NIPS 2014): each edge is hashed
// on its lower-degree endpoint, so high-degree vertices are the ones that
// get replicated — the cheap strategy for power-law graphs.
type DBH struct {
	seed uint64
}

var (
	_ partition.Partitioner       = (*DBH)(nil)
	_ partition.StreamPartitioner = (*DBH)(nil)
)

// NewDBH returns the DBH baseline.
func NewDBH(seed uint64) *DBH { return &DBH{seed: seed} }

// Name implements partition.Partitioner.
func (x *DBH) Name() string { return "DBH" }

// Partition implements partition.Partitioner.
func (x *DBH) Partition(g *graph.Graph, p int) (*partition.Assignment, error) {
	if err := validateInput(g, p); err != nil {
		return nil, err
	}
	return x.PartitionStream(source.FromGraph(g, source.OrderNatural, x.seed), p)
}

// PartitionStream implements partition.StreamPartitioner with two passes:
// one to count degrees, one to hash each edge on its lower-degree endpoint.
// On a simple-graph source the streamed degrees equal CSR degrees, so the
// result is identical to the graph path. Memory: O(n) degree counters.
func (x *DBH) PartitionStream(src source.EdgeSource, p int) (*partition.Assignment, error) {
	if err := validateSource(src, p); err != nil {
		return nil, err
	}
	a, err := partition.New(src.NumEdges(), p)
	if err != nil {
		return nil, err
	}
	deg := make([]int32, src.NumVertices())
	err = forEachEdge(src, func(e source.Edge) {
		deg[e.U]++
		deg[e.V]++
	})
	if err != nil {
		return nil, err
	}
	err = forEachEdge(src, func(e source.Edge) {
		lo := e.U
		if deg[e.V] < deg[e.U] || (deg[e.V] == deg[e.U] && e.V < e.U) {
			lo = e.V
		}
		a.Assign(e.ID, int(rng.Hash2(x.seed, uint64(lo))%uint64(p)))
	})
	if err != nil {
		return nil, err
	}
	return a, nil
}

// Greedy is the PowerGraph streaming heuristic (Gonzalez et al., OSDI 2012):
// place each arriving edge by the replica-overlap case analysis, breaking
// ties toward the least-loaded partition.
type Greedy struct {
	seed  uint64
	order Order
}

var (
	_ partition.Partitioner       = (*Greedy)(nil)
	_ partition.StreamPartitioner = (*Greedy)(nil)
)

// NewGreedy returns the PowerGraph-style greedy streamer.
func NewGreedy(seed uint64, order Order) *Greedy {
	if order == 0 {
		order = OrderShuffled
	}
	return &Greedy{seed: seed, order: order}
}

// Name implements partition.Partitioner.
func (x *Greedy) Name() string { return "Greedy" }

// Partition implements partition.Partitioner by streaming a graph-backed
// source in the configured order.
func (x *Greedy) Partition(g *graph.Graph, p int) (*partition.Assignment, error) {
	if err := validateInput(g, p); err != nil {
		return nil, err
	}
	return x.PartitionStream(source.FromGraph(g, x.order, x.seed), p)
}

// PartitionStream implements partition.StreamPartitioner, placing edges in
// the source's arrival order. Memory: O(n*ceil(p/64)) replica bitset words
// plus O(p) loads.
func (x *Greedy) PartitionStream(src source.EdgeSource, p int) (*partition.Assignment, error) {
	if err := validateSource(src, p); err != nil {
		return nil, err
	}
	a, err := partition.New(src.NumEdges(), p)
	if err != nil {
		return nil, err
	}
	rs := newReplicaSets(src.NumVertices(), p)
	err = forEachEdge(src, func(e source.Edge) {
		k := greedyChoose(a, rs, e, p)
		a.Assign(e.ID, k)
		rs.add(e.U, k)
		rs.add(e.V, k)
	})
	if err != nil {
		return nil, err
	}
	return a, nil
}

// greedyChoose applies the PowerGraph case analysis for edge e.
func greedyChoose(a *partition.Assignment, rs *replicaSets, e source.Edge, p int) int {
	cu, cv := rs.count(e.U), rs.count(e.V)
	switch {
	case cu > 0 && cv > 0:
		// Case 1: intersection -> least-loaded common partition.
		best, found := -1, false
		for k := 0; k < p; k++ {
			if rs.has(e.U, k) && rs.has(e.V, k) {
				if !found || a.Load(k) < a.Load(best) {
					best, found = k, true
				}
			}
		}
		if found {
			return best
		}
		// Case 2: disjoint -> a partition of the vertex with more
		// unplaced... PowerGraph: choose from the sets of the vertex
		// with the most remaining edges; we approximate with the
		// least-loaded partition among the union.
		for k := 0; k < p; k++ {
			if rs.has(e.U, k) || rs.has(e.V, k) {
				if best == -1 || a.Load(k) < a.Load(best) {
					best = k
				}
			}
		}
		return best
	case cu > 0 || cv > 0:
		// Case 3: one placed vertex -> its least-loaded partition.
		v := e.U
		if cv > 0 {
			v = e.V
		}
		best := -1
		for k := 0; k < p; k++ {
			if rs.has(v, k) {
				if best == -1 || a.Load(k) < a.Load(best) {
					best = k
				}
			}
		}
		return best
	default:
		// Case 4: both new -> least-loaded partition overall.
		best := 0
		for k := 1; k < p; k++ {
			if a.Load(k) < a.Load(best) {
				best = k
			}
		}
		return best
	}
}

// HDRF is the High-Degree Replicated First streamer (Petroni et al., CIKM
// 2015): like Greedy but the replica-affinity score discounts the
// high-degree endpoint, plus an explicit load-balance term weighted by
// hdrfLambda.
type HDRF struct {
	seed  uint64
	order Order
}

// hdrfLambda weights HDRF's balance term; 1.0 is the paper's default.
const hdrfLambda = 1.0

var (
	_ partition.Partitioner       = (*HDRF)(nil)
	_ partition.StreamPartitioner = (*HDRF)(nil)
)

// NewHDRF returns an HDRF streamer.
func NewHDRF(seed uint64, order Order) *HDRF {
	if order == 0 {
		order = OrderShuffled
	}
	return &HDRF{seed: seed, order: order}
}

// Name implements partition.Partitioner.
func (x *HDRF) Name() string { return "HDRF" }

// Partition implements partition.Partitioner by streaming a graph-backed
// source in the configured order.
func (x *HDRF) Partition(g *graph.Graph, p int) (*partition.Assignment, error) {
	if err := validateInput(g, p); err != nil {
		return nil, err
	}
	return x.PartitionStream(source.FromGraph(g, x.order, x.seed), p)
}

// PartitionStream implements partition.StreamPartitioner. Partial degrees
// are accumulated as edges arrive (the streaming setting does not know
// final degrees). Memory: O(n) replica bitsets and degree counters.
func (x *HDRF) PartitionStream(src source.EdgeSource, p int) (*partition.Assignment, error) {
	if err := validateSource(src, p); err != nil {
		return nil, err
	}
	a, err := partition.New(src.NumEdges(), p)
	if err != nil {
		return nil, err
	}
	rs := newReplicaSets(src.NumVertices(), p)
	pdeg := make([]int32, src.NumVertices())
	err = forEachEdge(src, func(e source.Edge) {
		pdeg[e.U]++
		pdeg[e.V]++
		k := x.choose(a, rs, e, p, pdeg)
		a.Assign(e.ID, k)
		rs.add(e.U, k)
		rs.add(e.V, k)
	})
	if err != nil {
		return nil, err
	}
	return a, nil
}

func (x *HDRF) choose(a *partition.Assignment, rs *replicaSets, e source.Edge, p int, pdeg []int32) int {
	du, dv := float64(pdeg[e.U]), float64(pdeg[e.V])
	thetaU := du / (du + dv)
	thetaV := 1 - thetaU
	maxLoad, minLoad := 0, a.Load(0)
	for k := 0; k < p; k++ {
		l := a.Load(k)
		if l > maxLoad {
			maxLoad = l
		}
		if l < minLoad {
			minLoad = l
		}
	}
	best, bestScore := 0, -1.0
	for k := 0; k < p; k++ {
		var crep float64
		if rs.has(e.U, k) {
			crep += 1 + (1 - thetaU)
		}
		if rs.has(e.V, k) {
			crep += 1 + (1 - thetaV)
		}
		denom := float64(maxLoad - minLoad)
		if denom < 1 {
			denom = 1
		}
		cbal := hdrfLambda * float64(maxLoad-a.Load(k)) / denom
		if score := crep + cbal; score > bestScore {
			best, bestScore = k, score
		}
	}
	return best
}
