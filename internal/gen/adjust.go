package gen

import (
	"math/bits"

	"github.com/graphpart/graphpart/internal/graph"
	"github.com/graphpart/graphpart/internal/rng"
)

// edgeAccum wraps a graph.Builder with a distinct-edge set so generators can
// count realised (deduplicated) edges while generating.
//
// The set is an open-addressing hash table of edgeKey values with linear
// probing, kept at most half full. Key 0 marks an empty slot: edgeKey is 0
// only for the self-loop 0-0, which add rejects before probing.
type edgeAccum struct {
	b     *graph.Builder
	slots []uint64
	shift uint // 64 - log2(len(slots)): slot(key) takes the top bits of the hash
	n     int
}

// newEdgeAccum returns an accumulator over numVertices vertices whose set
// holds expectEdges edges before it first grows. expectEdges is capped at
// the number of possible edges, so a huge target on a tiny graph allocates
// nothing large.
func newEdgeAccum(numVertices, expectEdges int) *edgeAccum {
	a := &edgeAccum{b: graph.NewBuilder(numVertices)}
	n := int64(numVertices)
	a.resize(2 * int(max(min(int64(expectEdges), n*(n-1)/2), 8)))
	return a
}

func edgeKey(u, v graph.Vertex) uint64 {
	if u > v {
		u, v = v, u
	}
	return uint64(uint32(u))<<32 | uint64(uint32(v))
}

// resize rehashes the set into the smallest power-of-two table of at least
// size slots.
func (a *edgeAccum) resize(size int) {
	logSize := uint(bits.Len(uint(size - 1)))
	old := a.slots
	a.slots = make([]uint64, 1<<logSize)
	a.shift = 64 - logSize
	for _, key := range old {
		if key != 0 {
			a.slots[a.probe(key)] = key
		}
	}
}

// probe returns the slot holding key, or the empty slot where it belongs.
func (a *edgeAccum) probe(key uint64) int {
	mask := len(a.slots) - 1
	i := int(key * 0x9E3779B97F4A7C15 >> a.shift)
	for a.slots[i] != 0 && a.slots[i] != key {
		i = (i + 1) & mask
	}
	return i
}

// add records the edge and reports whether it was new (not a duplicate or
// self-loop).
func (a *edgeAccum) add(u, v graph.Vertex) bool {
	if u == v {
		return false
	}
	key := edgeKey(u, v)
	i := a.probe(key)
	if a.slots[i] == key {
		return false
	}
	if err := a.b.AddEdge(u, v); err != nil {
		return false
	}
	a.slots[i] = key
	a.n++
	if 2*a.n > len(a.slots) {
		a.resize(2 * len(a.slots))
	}
	return true
}

func (a *edgeAccum) count() int { return a.n }

func (a *edgeAccum) build() *graph.Graph { return a.b.Build() }

// AdjustEdgeCount returns a graph with exactly target edges, derived from g:
// if g has too many edges, a uniform random subset is dropped; if too few,
// random edges between existing vertices are added (biased toward higher-
// degree vertices to minimally perturb the degree distribution). Returns g
// unchanged when the count already matches or the target is infeasible.
func AdjustEdgeCount(g *graph.Graph, target int, r *rng.RNG) *graph.Graph {
	m := g.NumEdges()
	n := g.NumVertices()
	if m == target || n < 2 {
		return g
	}
	maxEdges := int64(n) * int64(n-1) / 2
	if int64(target) > maxEdges || target < 0 {
		return g
	}
	if m > target {
		// Drop a random subset: keep `target` edges chosen uniformly.
		keep := r.Perm(m)[:target]
		b := graph.NewBuilder(n)
		for _, id := range keep {
			e := g.Edge(graph.EdgeID(id))
			_ = b.AddEdge(e.U, e.V)
		}
		return b.Build()
	}
	// Top up: sample endpoints degree-proportionally (plus one smoothing so
	// isolated vertices remain reachable).
	acc := newEdgeAccum(n, target)
	for _, e := range g.Edges() {
		acc.add(e.U, e.V)
	}
	// Endpoint pool: each vertex appears deg(v)+1 times.
	pool := make([]graph.Vertex, 0, 2*m+n)
	for v := 0; v < n; v++ {
		reps := g.Degree(graph.Vertex(v)) + 1
		for i := 0; i < reps; i++ {
			pool = append(pool, graph.Vertex(v))
		}
	}
	guard := 0
	for acc.count() < target && guard < 100*(target-m)+10000 {
		guard++
		u := pool[r.Intn(len(pool))]
		v := pool[r.Intn(len(pool))]
		acc.add(u, v)
	}
	return acc.build()
}
