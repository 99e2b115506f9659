// Package metis implements a from-scratch METIS-style multilevel graph
// partitioner — the offline baseline of the paper's evaluation — and the
// derivation of a balanced edge partitioning from its vertex partitioning.
//
// The pipeline is the classic three phases of Karypis & Kumar:
//
//  1. Coarsening: repeated heavy-edge matching contracts the graph until it
//     is small.
//  2. Initial partitioning: greedy graph growing bisects the coarsest graph.
//  3. Uncoarsening: the bisection is projected back level by level, refined
//     at each level with Fiduccia-Mattheyses boundary passes.
//
// k-way partitions come from recursive bisection. Because METIS partitions
// vertices while the paper's problem partitions edges, each edge of the
// input is then assigned to one of its endpoints' parts, preferring the
// lighter part, which is the standard adaptation used when METIS appears as
// an edge-partitioning baseline.
package metis

import (
	"github.com/graphpart/graphpart/internal/graph"
	"github.com/graphpart/graphpart/internal/rng"
)

// wgraph is a weighted undirected graph in CSR form used internally by the
// multilevel hierarchy. Vertex weights count collapsed input vertices; edge
// weights count collapsed input edges.
type wgraph struct {
	offsets []int32
	adj     []int32
	wadj    []int32 // edge weight parallel to adj
	vwgt    []int32 // vertex weights
}

func (w *wgraph) numVertices() int { return len(w.vwgt) }

func (w *wgraph) degree(v int32) int32 { return w.offsets[v+1] - w.offsets[v] }

func (w *wgraph) neighbors(v int32) ([]int32, []int32) {
	lo, hi := w.offsets[v], w.offsets[v+1]
	return w.adj[lo:hi], w.wadj[lo:hi]
}

func (w *wgraph) totalVertexWeight() int64 {
	var t int64
	for _, x := range w.vwgt {
		t += int64(x)
	}
	return t
}

// fromGraph converts the immutable input graph to a unit-weighted wgraph.
func fromGraph(g *graph.Graph) *wgraph {
	n := g.NumVertices()
	w := &wgraph{
		offsets: make([]int32, n+1),
		adj:     make([]int32, 2*g.NumEdges()),
		wadj:    make([]int32, 2*g.NumEdges()),
		vwgt:    make([]int32, n),
	}
	for v := 0; v < n; v++ {
		w.vwgt[v] = 1
		w.offsets[v+1] = w.offsets[v] + int32(g.Degree(graph.Vertex(v)))
		copy(w.adj[w.offsets[v]:w.offsets[v+1]], g.Neighbors(graph.Vertex(v)))
		for i := w.offsets[v]; i < w.offsets[v+1]; i++ {
			w.wadj[i] = 1
		}
	}
	return w
}

// level is one rung of the multilevel hierarchy.
type level struct {
	g *wgraph
	// coarseOf maps each vertex of this level's graph to its vertex in
	// the NEXT (coarser) graph; meaningless at the coarsest level.
	coarseOf []int32
}

// heavyEdgeMatching computes a matching that prefers heavy edges: vertices
// are visited in random order, and each unmatched vertex matches its
// unmatched neighbour with the heaviest connecting edge. Returns match[v] =
// partner (or v itself when unmatched), held in a's buffer, and the number of
// coarse vertices.
//
//graphpart:hotpath test=TestHotPathAllocs_MetisLevel
func heavyEdgeMatching(w *wgraph, r *rng.RNG, maxVWgt int64, a *arena) (match []int32, coarseN int) {
	n := w.numVertices()
	a.match = grow(a.match, n)
	match = a.match
	for i := range match {
		match[i] = -1
	}
	// The same draws as r.Perm(n), into a reused buffer.
	a.order = grow(a.order, n)
	order := a.order
	for i := range order {
		order[i] = i
	}
	r.ShuffleInts(order)
	for _, vi := range order {
		v := int32(vi)
		if match[v] != -1 {
			continue
		}
		var best int32 = -1
		var bestW int32 = -1
		nbrs, wts := w.neighbors(v)
		for i, u := range nbrs {
			if match[u] != -1 || u == v {
				continue
			}
			if int64(w.vwgt[v])+int64(w.vwgt[u]) > maxVWgt {
				continue // keep coarse vertices from ballooning
			}
			if wts[i] > bestW || (wts[i] == bestW && u < best) {
				best, bestW = u, wts[i]
			}
		}
		// One coarse vertex per matched pair, one per singleton.
		coarseN++
		if best == -1 {
			match[v] = v
		} else {
			match[v] = best
			match[best] = v
		}
	}
	return match, coarseN
}

// contract builds into cg the coarser graph of w under match, and writes the
// fine-to-coarse vertex map into coarseOf (length w.numVertices()). Coarse
// ids follow the smaller fine endpoint of each pair, so visiting fine
// vertices in order visits coarse vertices in order.
//
// One sweep builds the rows: coarse row c is accumulated straight after row
// c-1 through s.slot, a dense table of its arcs' positions that is reset
// only where the row touched it. A row's arcs come out in first-touch
// order, not ascending. No consumer depends on that order: matching,
// greedy growing and FM pick by strict (weight or gain, id) orders, and
// cut and weight sums are order-free.
//
//graphpart:hotpath test=TestHotPathAllocs_MetisLevel
func contract(w *wgraph, match []int32, coarseN int, cg *wgraph, coarseOf []int32, s *contractScratch) {
	n := w.numVertices()
	next := int32(0)
	for v := int32(0); int(v) < n; v++ {
		if match[v] == v || match[v] > v {
			coarseOf[v] = next
			if match[v] != v {
				coarseOf[match[v]] = next
			}
			next++
		}
	}
	s.slot = grow(s.slot, coarseN)
	slot := s.slot
	for i := range slot {
		slot[i] = -1
	}
	cg.vwgt = grow(cg.vwgt, coarseN)
	cg.offsets = grow(cg.offsets, coarseN+1)
	// A coarse graph has at most as many arcs as its fine one.
	cg.adj = grow(cg.adj, len(w.adj))
	cg.wadj = grow(cg.wadj, len(w.adj))
	vwgt, offsets, adj, wadj := cg.vwgt, cg.offsets, cg.adj, cg.wadj
	offsets[0] = 0
	end, c := int32(0), int32(0)
	for v := int32(0); int(v) < n; v++ {
		u := match[v]
		if u < v {
			continue // v belongs to its smaller partner's coarse vertex
		}
		vwgt[c] = 0
		for _, x := range [2]int32{v, u} {
			vwgt[c] += w.vwgt[x]
			nbrs, wts := w.neighbors(x)
			for i, y := range nbrs {
				cy := coarseOf[y]
				if cy == c {
					continue // internal edge collapses
				}
				if k := slot[cy]; k >= 0 {
					wadj[k] += wts[i]
				} else {
					slot[cy] = end
					adj[end] = cy
					wadj[end] = wts[i]
					end++
				}
			}
			if u == v {
				break // singleton
			}
		}
		for _, cy := range adj[offsets[c]:end] {
			slot[cy] = -1
		}
		c++
		offsets[c] = end
	}
	cg.adj, cg.wadj = adj[:end], wadj[:end]
}
