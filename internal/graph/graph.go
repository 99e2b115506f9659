// Package graph provides the immutable undirected graph representation used
// by every partitioner in this repository, together with builders, edge-list
// IO, traversals and structural statistics.
//
// Graphs are simple (no self-loops, no parallel edges) and undirected, which
// matches the problem statement of the paper: G = (V, E) with n = |V|
// vertices and m = |E| edges. Vertices are dense integer ids in [0, n); every
// undirected edge has a dense EdgeID in [0, m). The adjacency is stored in
// CSR (compressed sparse row) form with per-vertex neighbour lists sorted by
// vertex id, so neighbourhood queries are cache-friendly slices and
// membership tests are binary searches.
package graph

import (
	"fmt"
	"sort"

	"github.com/graphpart/graphpart/internal/invariants"
)

// Vertex identifies a vertex as a dense index in [0, NumVertices).
// int32 keeps adjacency arrays compact for multi-million-vertex graphs.
type Vertex = int32

// EdgeID identifies an undirected edge as a dense index in [0, NumEdges).
type EdgeID = int32

// Edge is an undirected edge between vertices U and V with U < V
// (canonical orientation; builders normalise the order).
type Edge struct {
	U, V Vertex
}

// Other returns the endpoint of e that is not v. It panics if v is not an
// endpoint of e; callers always know the incident vertex.
func (e Edge) Other(v Vertex) Vertex {
	switch v {
	case e.U:
		return e.V
	case e.V:
		return e.U
	default:
		panic(fmt.Sprintf("graph: vertex %d is not an endpoint of edge %v", v, e))
	}
}

// Graph is an immutable simple undirected graph in CSR form.
//
// The zero value is an empty graph with no vertices. Construct graphs with a
// Builder, FromEdges, or the IO readers. Graph methods are safe for
// concurrent use because the structure never mutates after construction.
type Graph struct {
	offsets []int64  // len NumVertices+1; adjacency of v is adj[offsets[v]:offsets[v+1]]
	adj     []Vertex // neighbour vertex ids, sorted within each vertex
	adjEdge []EdgeID // adjEdge[i] is the EdgeID of the arc adj[i]
	edges   []Edge   // edge endpoints by EdgeID, canonical U < V
}

// NumVertices returns n = |V|.
func (g *Graph) NumVertices() int { return len(g.offsets) - 1 }

// NumEdges returns m = |E| (undirected edges, each counted once).
func (g *Graph) NumEdges() int { return len(g.edges) }

// Degree returns the number of neighbours of v.
func (g *Graph) Degree(v Vertex) int {
	return int(g.offsets[v+1] - g.offsets[v])
}

// Neighbors returns the sorted neighbour list of v. The returned slice
// aliases internal storage and must not be modified.
func (g *Graph) Neighbors(v Vertex) []Vertex {
	return g.adj[g.offsets[v]:g.offsets[v+1]]
}

// IncidentEdges returns the EdgeIDs incident to v, parallel to Neighbors(v).
// The returned slice aliases internal storage and must not be modified.
func (g *Graph) IncidentEdges(v Vertex) []EdgeID {
	return g.adjEdge[g.offsets[v]:g.offsets[v+1]]
}

// Edge returns the endpoints of edge id in canonical order (U < V).
func (g *Graph) Edge(id EdgeID) Edge { return g.edges[id] }

// Edges returns all edges by EdgeID. The returned slice aliases internal
// storage and must not be modified.
func (g *Graph) Edges() []Edge { return g.edges }

// HasEdge reports whether an edge between u and v exists.
func (g *Graph) HasEdge(u, v Vertex) bool {
	_, ok := g.FindEdge(u, v)
	return ok
}

// FindEdge returns the EdgeID of the edge between u and v, if present.
// It runs in O(log deg) by binary search over the smaller adjacency list.
func (g *Graph) FindEdge(u, v Vertex) (EdgeID, bool) {
	if u == v {
		return 0, false
	}
	if g.Degree(u) > g.Degree(v) {
		u, v = v, u
	}
	nbrs := g.Neighbors(u)
	i := sort.Search(len(nbrs), func(i int) bool { return nbrs[i] >= v })
	if i < len(nbrs) && nbrs[i] == v {
		return g.IncidentEdges(u)[i], true
	}
	return 0, false
}

// AvgDegree returns the average vertex degree 2m/n, or 0 for an empty graph.
func (g *Graph) AvgDegree() float64 {
	n := g.NumVertices()
	if n == 0 {
		return 0
	}
	return 2 * float64(g.NumEdges()) / float64(n)
}

// MaxDegree returns the largest vertex degree, or 0 for an empty graph.
func (g *Graph) MaxDegree() int {
	max := 0
	for v := 0; v < g.NumVertices(); v++ {
		if d := g.Degree(Vertex(v)); d > max {
			max = d
		}
	}
	return max
}

// FromEdges builds a graph with numVertices vertices from the given edge
// list. Self-loops and duplicate edges (in either orientation) are rejected
// with an error; use a Builder to deduplicate noisy input instead.
func FromEdges(numVertices int, edges []Edge) (*Graph, error) {
	b := NewBuilder(numVertices)
	b.edges = make([]Edge, 0, len(edges))
	for _, e := range edges {
		if err := b.AddEdgeStrict(e.U, e.V); err != nil {
			return nil, err
		}
	}
	return b.BuildStrict()
}

// MustFromEdges is FromEdges that panics on error; intended for tests and
// package examples with hand-written edge lists.
func MustFromEdges(numVertices int, edges []Edge) *Graph {
	g, err := FromEdges(numVertices, edges)
	if err != nil {
		panic(err)
	}
	return g
}

// build assembles the CSR arrays from a canonical edge list that is sorted
// by (U, V), self-loop free and duplicate free; edge i gets EdgeID i.
//
// Rows come out sorted without a sort. The fill walks the edges in order,
// so an edge (u, x) with u < x reaches x's row before every edge (x, v):
// x's row receives its smaller neighbours in ascending u, then its larger
// neighbours in ascending v.
func build(numVertices int, edges []Edge) *Graph {
	g := &Graph{
		offsets: make([]int64, numVertices+1),
		adj:     make([]Vertex, 2*len(edges)),
		adjEdge: make([]EdgeID, 2*len(edges)),
		edges:   edges,
	}
	for _, e := range edges {
		g.offsets[e.U+1]++
		g.offsets[e.V+1]++
	}
	for v := 0; v < numVertices; v++ {
		g.offsets[v+1] += g.offsets[v]
	}
	cursor := make([]int64, numVertices)
	copy(cursor, g.offsets[:numVertices])
	for id, e := range edges {
		g.adj[cursor[e.U]] = e.V
		g.adjEdge[cursor[e.U]] = EdgeID(id)
		cursor[e.U]++
		g.adj[cursor[e.V]] = e.U
		g.adjEdge[cursor[e.V]] = EdgeID(id)
		cursor[e.V]++
	}
	if invariants.Enabled {
		for v := 0; v < numVertices; v++ {
			row := g.Neighbors(Vertex(v))
			for i := 1; i < len(row); i++ {
				invariants.Assertf(row[i-1] < row[i], "graph: row %d not strictly ascending at %d: %v", v, i, row)
			}
		}
	}
	return g
}
