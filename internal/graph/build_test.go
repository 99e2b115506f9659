package graph

import (
	"sort"
	"testing"

	"github.com/graphpart/graphpart/internal/rng"
)

// referenceGraph is the naive construction the builder must reproduce:
// canonicalise, drop self-loops, sort.Slice by (U, V), drop duplicates, fill
// rows in edge order, then sort every row by neighbour id.
func referenceGraph(n int, raw []Edge) *Graph {
	var edges []Edge
	for _, e := range raw {
		if e.U == e.V {
			continue
		}
		if e.U > e.V {
			e.U, e.V = e.V, e.U
		}
		edges = append(edges, e)
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].U != edges[j].U {
			return edges[i].U < edges[j].U
		}
		return edges[i].V < edges[j].V
	})
	uniq := edges[:0]
	for i, e := range edges {
		if i == 0 || e != edges[i-1] {
			uniq = append(uniq, e)
		}
	}
	g := &Graph{
		offsets: make([]int64, n+1),
		adj:     make([]Vertex, 2*len(uniq)),
		adjEdge: make([]EdgeID, 2*len(uniq)),
		edges:   uniq,
	}
	for _, e := range uniq {
		g.offsets[e.U+1]++
		g.offsets[e.V+1]++
	}
	for v := 0; v < n; v++ {
		g.offsets[v+1] += g.offsets[v]
	}
	cursor := append([]int64(nil), g.offsets[:n]...)
	for id, e := range uniq {
		for _, end := range [2][2]Vertex{{e.U, e.V}, {e.V, e.U}} {
			g.adj[cursor[end[0]]] = end[1]
			g.adjEdge[cursor[end[0]]] = EdgeID(id)
			cursor[end[0]]++
		}
	}
	for v := 0; v < n; v++ {
		lo, hi := g.offsets[v], g.offsets[v+1]
		row := make([][2]int32, 0, hi-lo)
		for i := lo; i < hi; i++ {
			row = append(row, [2]int32{g.adj[i], g.adjEdge[i]})
		}
		sort.Slice(row, func(i, j int) bool { return row[i][0] < row[j][0] })
		for i, r := range row {
			g.adj[lo+int64(i)] = r[0]
			g.adjEdge[lo+int64(i)] = r[1]
		}
	}
	return g
}

func graphsEqual(t *testing.T, got, want *Graph) {
	t.Helper()
	if got.NumVertices() != want.NumVertices() || got.NumEdges() != want.NumEdges() {
		t.Fatalf("size (%d,%d), want (%d,%d)",
			got.NumVertices(), got.NumEdges(), want.NumVertices(), want.NumEdges())
	}
	for i := range want.offsets {
		if got.offsets[i] != want.offsets[i] {
			t.Fatalf("offsets[%d] = %d, want %d", i, got.offsets[i], want.offsets[i])
		}
	}
	for i := range want.adj {
		if got.adj[i] != want.adj[i] {
			t.Fatalf("adj[%d] = %d, want %d", i, got.adj[i], want.adj[i])
		}
		if got.adjEdge[i] != want.adjEdge[i] {
			t.Fatalf("adjEdge[%d] = %d, want %d", i, got.adjEdge[i], want.adjEdge[i])
		}
	}
	for i := range want.edges {
		if got.edges[i] != want.edges[i] {
			t.Fatalf("edges[%d] = %v, want %v", i, got.edges[i], want.edges[i])
		}
	}
}

// TestBuildMatchesReference feeds the builder edge lists in hostile orders
// and checks every CSR array against referenceGraph.
func TestBuildMatchesReference(t *testing.T) {
	r := rng.New(19)
	randomEdges := func(n, m int) []Edge {
		out := make([]Edge, m)
		for i := range out {
			out[i] = Edge{Vertex(r.Intn(n)), Vertex(r.Intn(n))}
		}
		return out
	}
	reversed := func(in []Edge) []Edge {
		out := make([]Edge, len(in))
		for i, e := range in {
			out[len(in)-1-i] = Edge{e.V, e.U}
		}
		return out
	}
	shuffled := func(in []Edge) []Edge {
		out := append([]Edge(nil), in...)
		for i, j := range r.Perm(len(out)) {
			out[i], out[j] = out[j], out[i]
		}
		return out
	}
	sorted := referenceGraph(3000, randomEdges(3000, 20000)).edges
	// Ids up to 2^17+: V and U each span three 8-bit radix digits.
	wide := randomEdges(1<<17+5, 5000)
	wide = append(wide, Edge{1<<17 + 4, 0}, Edge{1 << 16, 1<<16 + 255}, Edge{255, 256})
	cases := []struct {
		name string
		n    int
		raw  []Edge
	}{
		{"empty", 10, nil},
		{"no-vertices", 0, nil},
		{"one-edge", 4, []Edge{{3, 1}}},
		{"one-self-loop", 4, []Edge{{2, 2}}},
		{"sorted", 3000, sorted},
		{"reversed", 3000, reversed(sorted)},
		{"shuffled", 3000, shuffled(sorted)},
		{"duplicated", 3000, shuffled(append(append([]Edge(nil), sorted...), reversed(sorted[:5000])...))},
		{"self-looped", 50, append(randomEdges(50, 2000), Edge{0, 0}, Edge{49, 49})},
		{"star", 1000, func() []Edge {
			var out []Edge
			for v := 999; v > 0; v-- {
				out = append(out, Edge{Vertex(v), 500}, Edge{500, Vertex(v)})
			}
			return out
		}()},
		{"three-digit-ids", 1<<17 + 5, wide},
		{"three-digit-ids-shuffled", 1<<17 + 5, shuffled(reversed(wide))},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			b := NewBuilder(c.n)
			for _, e := range c.raw {
				if err := b.AddEdge(e.U, e.V); err != nil {
					t.Fatal(err)
				}
			}
			graphsEqual(t, b.Build(), referenceGraph(c.n, c.raw))
		})
	}
}

// TestFromEdgesOrderedInput covers the inputs sortEdges' sortedness check
// separates: already sorted (left alone), sorted with an adjacent duplicate
// (BuildStrict must still reject it), sorted but for one trailing inversion,
// and reverse-sorted. Every accepted list must build exactly the reference.
func TestFromEdgesOrderedInput(t *testing.T) {
	r := rng.New(23)
	const n = 2000
	raw := make([]Edge, 12000)
	for i := range raw {
		raw[i] = Edge{Vertex(r.Intn(n)), Vertex(r.Intn(n))}
	}
	sorted := referenceGraph(n, raw).edges
	trailing := append([]Edge(nil), sorted...)
	last := len(trailing) - 1
	trailing[last-1], trailing[last] = trailing[last], trailing[last-1]
	reversed := make([]Edge, len(sorted))
	for i, e := range sorted {
		reversed[len(sorted)-1-i] = e
	}
	for _, c := range []struct {
		name  string
		edges []Edge
	}{
		{"sorted", sorted},
		{"trailing-inversion", trailing},
		{"reverse-sorted", reversed},
	} {
		t.Run(c.name, func(t *testing.T) {
			in := append([]Edge(nil), c.edges...)
			g, err := FromEdges(n, in)
			if err != nil {
				t.Fatal(err)
			}
			graphsEqual(t, g, referenceGraph(n, c.edges))
			for i := range in {
				if in[i] != c.edges[i] {
					t.Fatalf("FromEdges reordered its input at %d", i)
				}
			}
		})
	}
	t.Run("sorted-adjacent-duplicate", func(t *testing.T) {
		dup := append(append(append([]Edge(nil), sorted[:100]...), sorted[99]), sorted[100:]...)
		if _, err := FromEdges(n, dup); err == nil {
			t.Fatal("FromEdges accepted a sorted list with an adjacent duplicate")
		}
	})
}

// TestBuildStrictThenAdd checks the graph BuildStrict hands its edges to is
// unaffected by later AddEdge and BuildStrict calls on the same builder.
func TestBuildStrictThenAdd(t *testing.T) {
	raw := []Edge{{5, 9}, {1, 2}, {3, 7}, {0, 8}, {4, 6}} // five: the builder's array has spare capacity
	b := NewBuilder(10)
	for _, e := range raw {
		if err := b.AddEdgeStrict(e.U, e.V); err != nil {
			t.Fatal(err)
		}
	}
	first, err := b.BuildStrict()
	if err != nil {
		t.Fatal(err)
	}
	want := referenceGraph(10, raw)
	more := []Edge{{0, 1}, {2, 4}}
	for _, e := range more {
		if err := b.AddEdgeStrict(e.U, e.V); err != nil {
			t.Fatal(err)
		}
	}
	second, err := b.BuildStrict()
	if err != nil {
		t.Fatal(err)
	}
	graphsEqual(t, first, want)
	graphsEqual(t, second, referenceGraph(10, append(raw, more...)))
}
