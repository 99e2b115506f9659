package metis

import (
	"sort"

	"github.com/graphpart/graphpart/internal/graph"
	"github.com/graphpart/graphpart/internal/partition"
	"github.com/graphpart/graphpart/internal/source"
)

// DeriveBalanced is DeriveEdgePartition followed by a rebalancing pass that
// enforces the strict capacity C = ceil(m/p) of Definition 3: overfull
// partitions donate edges to underfull ones, preferring donations that do
// not create new replicas (an edge moves to a partition where both its
// endpoints are already present), then cut edges moving to their other
// endpoint's part, then arbitrary edges. The result always satisfies
// |E(P_k)| <= C.
func DeriveBalanced(g *graph.Graph, labels []int32, p int) (*partition.Assignment, error) {
	a, err := DeriveEdgePartition(source.FromGraph(g, source.OrderNatural, 0), labels, p)
	if err != nil {
		return nil, err
	}
	capC := partition.Capacity(g.NumEdges(), p)
	over := overfull(a, capC)
	if len(over) == 0 {
		return a, nil
	}
	// present is an n*p bitset, bit v*p+k set when vertex v is in
	// partition k, maintained approximately (presence is only added, never
	// removed, so "both endpoints present" stays a safe no-new-replica test
	// for targets).
	present := make([]uint64, (g.NumVertices()*p+63)/64)
	mark := func(e graph.Edge, k int) {
		for _, v := range [2]graph.Vertex{e.U, e.V} {
			i := int(v)*p + k
			present[i/64] |= 1 << (i % 64)
		}
	}
	has := func(v graph.Vertex, k int) bool {
		i := int(v)*p + k
		return present[i/64]&(1<<(i%64)) != 0
	}
	for id, e := range g.Edges() {
		k, _ := a.PartitionOf(graph.EdgeID(id))
		mark(e, k)
	}
	// Edge donation candidates per overfull partition, cheapest first:
	// pass 1 free moves, pass 2 endpoint-part moves, pass 3 forced moves.
	for _, k := range over {
		for pass := 1; pass <= 3 && a.Load(k) > capC; pass++ {
			for id := 0; id < g.NumEdges() && a.Load(k) > capC; id++ {
				eid := graph.EdgeID(id)
				cur, _ := a.PartitionOf(eid)
				if cur != k {
					continue
				}
				e := g.Edge(eid)
				target := -1
				switch pass {
				case 1:
					// Free: some underfull partition already holds
					// both endpoints.
					for t := 0; t < p; t++ {
						if t != k && a.Load(t) < capC && has(e.U, t) && has(e.V, t) {
							target = t
							break
						}
					}
				case 2:
					// The other endpoint's labelled part, if underfull.
					for _, cand := range []int32{labels[e.U], labels[e.V]} {
						t := int(cand)
						if t != k && t >= 0 && t < p && a.Load(t) < capC {
							target = t
							break
						}
					}
				default:
					// Any least-loaded partition.
					for t := 0; t < p; t++ {
						if t != k && a.Load(t) < capC &&
							(target == -1 || a.Load(t) < a.Load(target)) {
							target = t
						}
					}
				}
				if target == -1 {
					continue
				}
				a.Assign(eid, target)
				mark(e, target)
			}
		}
	}
	return a, nil
}

// overfull returns partitions exceeding capC, most-loaded first.
func overfull(a *partition.Assignment, capC int) []int {
	var out []int
	for k := 0; k < a.P(); k++ {
		if a.Load(k) > capC {
			out = append(out, k)
		}
	}
	sort.Slice(out, func(i, j int) bool { return a.Load(out[i]) > a.Load(out[j]) })
	return out
}

// FlatKL is the multilevel pipeline with coarsening disabled: greedy growing
// plus FM refinement on the full graph, recursively bisected — effectively
// the classic Kernighan-Lin/FM approach the paper cites as the pre-METIS
// offline baseline. Exists as the DESIGN.md §6 multilevel-vs-flat ablation.
type FlatKL struct {
	m *Partitioner
}

var _ partition.Partitioner = (*FlatKL)(nil)

// NewFlatKL returns the non-multilevel offline baseline.
func NewFlatKL(cfg Config) *FlatKL {
	m := New(cfg)
	// Disabling coarsening: the driver stops immediately when the graph
	// is already at or below CoarsenTo, so set it enormous.
	m.cfg.CoarsenTo = int(^uint(0) >> 1)
	return &FlatKL{m: m}
}

// Name implements partition.Partitioner.
func (f *FlatKL) Name() string { return "KL" }

// Partition implements partition.Partitioner.
func (f *FlatKL) Partition(g *graph.Graph, p int) (*partition.Assignment, error) {
	return f.m.Partition(g, p)
}
