package graph

import "fmt"

// Builder accumulates edges and produces an immutable Graph.
//
// The builder normalises input into a simple undirected graph: self-loops
// are dropped (or rejected in strict mode) and duplicate edges — in either
// orientation — are collapsed to one. Vertex ids must be non-negative;
// the vertex count can either be fixed up front or grown automatically to
// max-id+1. Builder is not safe for concurrent use.
type Builder struct {
	numVertices int
	fixedSize   bool
	edges       []Edge
}

// NewBuilder returns a builder for a graph with exactly numVertices
// vertices. Edges referencing vertices outside [0, numVertices) are
// rejected.
func NewBuilder(numVertices int) *Builder {
	return &Builder{numVertices: numVertices, fixedSize: true}
}

// NewGrowingBuilder returns a builder whose vertex count grows to cover the
// largest vertex id seen. Useful when reading edge lists whose vertex count
// is not known in advance.
func NewGrowingBuilder() *Builder {
	return &Builder{}
}

// NumVertices returns the current vertex count.
func (b *Builder) NumVertices() int { return b.numVertices }

// NumEdgesAdded returns the number of edges accepted so far, before
// deduplication.
func (b *Builder) NumEdgesAdded() int { return len(b.edges) }

// AddEdge records an undirected edge between u and v. Self-loops are
// silently dropped; duplicates are collapsed at Build time. It returns an
// error only when an endpoint is out of range.
func (b *Builder) AddEdge(u, v Vertex) error {
	if u == v {
		return nil
	}
	return b.add(u, v)
}

// AddEdgeStrict is AddEdge but reports self-loops as errors rather than
// dropping them. Duplicates are still detected at Build time via
// BuildStrict.
func (b *Builder) AddEdgeStrict(u, v Vertex) error {
	if u == v {
		return fmt.Errorf("graph: self-loop on vertex %d", u)
	}
	return b.add(u, v)
}

func (b *Builder) add(u, v Vertex) error {
	if u < 0 || v < 0 {
		return fmt.Errorf("graph: negative vertex id in edge (%d, %d)", u, v)
	}
	if b.fixedSize {
		if int(u) >= b.numVertices || int(v) >= b.numVertices {
			return fmt.Errorf("graph: edge (%d, %d) out of range for %d vertices", u, v, b.numVertices)
		}
	} else {
		if int(u) >= b.numVertices {
			b.numVertices = int(u) + 1
		}
		if int(v) >= b.numVertices {
			b.numVertices = int(v) + 1
		}
	}
	if u > v {
		u, v = v, u
	}
	b.edges = append(b.edges, Edge{U: u, V: v})
	return nil
}

// Build deduplicates the accumulated edges and returns the immutable graph.
// The builder can keep accepting edges afterwards; a later Build returns a
// new graph including them.
func (b *Builder) Build() *Graph {
	edges := append([]Edge(nil), b.edges...)
	sortEdges(edges)
	return build(b.numVertices, dedupeSorted(edges))
}

// BuildStrict is Build but returns an error if any duplicate edge was added.
// A strict build drops nothing, so it sorts the builder's own edges in place
// and hands them to the graph instead of copying them. The builder keeps them
// capacity-clipped: later AddEdge calls reallocate rather than write into the
// graph's edge array, and a repeated BuildStrict finds them sorted and leaves
// them untouched.
func (b *Builder) BuildStrict() (*Graph, error) {
	edges := b.edges[:len(b.edges):len(b.edges)]
	b.edges = edges
	sortEdges(edges)
	for i := 1; i < len(edges); i++ {
		if edges[i] == edges[i-1] {
			return nil, fmt.Errorf("graph: duplicate edge (%d, %d)", edges[i].U, edges[i].V)
		}
	}
	return build(b.numVertices, edges), nil
}

// radixBits is the digit width of sortEdges: 256 counters fit in L1, and a
// vertex id below 2^24 needs at most three digits.
const (
	radixBits = 8
	radixMask = 1<<radixBits - 1
)

// sortEdges sorts canonical edges by (U, V) with an LSD radix sort: stable
// counting passes over V's digits, least significant first, then over U's,
// using only as many digits as the largest V and U need. Edges already in
// (U, V) order are left alone (a cluster worker's shipped graph arrives
// sorted); unsorted input usually inverts within its first few edges, so the
// check costs next to nothing there.
func sortEdges(edges []Edge) {
	i := 1
	for i < len(edges) && sortKey(edges[i-1]) <= sortKey(edges[i]) {
		i++
	}
	if i >= len(edges) {
		return
	}
	var maxU, maxV Vertex
	for _, e := range edges {
		maxU = max(maxU, e.U)
		maxV = max(maxV, e.V)
	}
	src, dst := edges, make([]Edge, len(edges))
	for s := uint(0); maxV>>s != 0; s += radixBits {
		radixPass(src, dst, s)
		src, dst = dst, src
	}
	for s := uint(0); maxU>>s != 0; s += radixBits {
		radixPass(src, dst, 32+s)
		src, dst = dst, src
	}
	if &src[0] != &edges[0] {
		copy(edges, src)
	}
}

// radixPass stably scatters src into dst by the digit of sortKey(e) at shift.
func radixPass(src, dst []Edge, shift uint) {
	var next [radixMask + 1]int
	for _, e := range src {
		next[sortKey(e)>>shift&radixMask]++
	}
	sum := 0
	for d, c := range next {
		next[d] = sum
		sum += c
	}
	for _, e := range src {
		d := sortKey(e) >> shift & radixMask
		dst[next[d]] = e
		next[d]++
	}
}

// sortKey orders edges by (U, V): U in the high word, V in the low word.
func sortKey(e Edge) uint64 {
	return uint64(uint32(e.U))<<32 | uint64(uint32(e.V))
}

// dedupeSorted removes adjacent duplicates from sorted edges in place.
func dedupeSorted(edges []Edge) []Edge {
	if len(edges) == 0 {
		return edges
	}
	out := edges[:1]
	for _, e := range edges[1:] {
		if e != out[len(out)-1] {
			out = append(out, e)
		}
	}
	return out
}
