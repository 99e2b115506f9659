package graph

import (
	"sort"
	"testing"
	"testing/quick"

	"github.com/graphpart/graphpart/internal/rng"
)

// k4 returns the complete graph on 4 vertices.
func k4(t *testing.T) *Graph {
	t.Helper()
	g, err := FromEdges(4, []Edge{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// path returns the path graph 0-1-2-...-(n-1).
func path(t *testing.T, n int) *Graph {
	t.Helper()
	b := NewBuilder(n)
	for i := 0; i < n-1; i++ {
		if err := b.AddEdge(Vertex(i), Vertex(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	return b.Build()
}

func TestEmptyGraph(t *testing.T) {
	g := NewBuilder(0).Build()
	if g.NumVertices() != 0 || g.NumEdges() != 0 {
		t.Fatalf("empty graph has V=%d E=%d", g.NumVertices(), g.NumEdges())
	}
	if g.AvgDegree() != 0 {
		t.Fatal("empty graph AvgDegree should be 0")
	}
	if g.MaxDegree() != 0 {
		t.Fatal("empty graph MaxDegree should be 0")
	}
}

func TestIsolatedVertices(t *testing.T) {
	g := NewBuilder(5).Build()
	if g.NumVertices() != 5 || g.NumEdges() != 0 {
		t.Fatalf("got V=%d E=%d, want 5, 0", g.NumVertices(), g.NumEdges())
	}
	for v := Vertex(0); v < 5; v++ {
		if g.Degree(v) != 0 || len(g.Neighbors(v)) != 0 {
			t.Fatalf("vertex %d should be isolated", v)
		}
	}
}

func TestK4Basic(t *testing.T) {
	g := k4(t)
	if g.NumVertices() != 4 || g.NumEdges() != 6 {
		t.Fatalf("K4: V=%d E=%d", g.NumVertices(), g.NumEdges())
	}
	for v := Vertex(0); v < 4; v++ {
		if g.Degree(v) != 3 {
			t.Fatalf("K4 degree(%d)=%d, want 3", v, g.Degree(v))
		}
	}
	if g.AvgDegree() != 3 {
		t.Fatalf("K4 avg degree %v, want 3", g.AvgDegree())
	}
	if g.MaxDegree() != 3 {
		t.Fatalf("K4 max degree %v, want 3", g.MaxDegree())
	}
}

func TestNeighborsSorted(t *testing.T) {
	b := NewBuilder(6)
	// Insert in scrambled order.
	for _, e := range []Edge{{5, 0}, {0, 3}, {0, 1}, {4, 0}, {2, 0}} {
		if err := b.AddEdge(e.U, e.V); err != nil {
			t.Fatal(err)
		}
	}
	g := b.Build()
	nbrs := g.Neighbors(0)
	if !sort.SliceIsSorted(nbrs, func(i, j int) bool { return nbrs[i] < nbrs[j] }) {
		t.Fatalf("neighbours not sorted: %v", nbrs)
	}
	if len(nbrs) != 5 {
		t.Fatalf("got %d neighbours, want 5", len(nbrs))
	}
}

func TestEdgeCanonicalOrientation(t *testing.T) {
	b := NewBuilder(3)
	if err := b.AddEdge(2, 1); err != nil {
		t.Fatal(err)
	}
	g := b.Build()
	e := g.Edge(0)
	if e.U != 1 || e.V != 2 {
		t.Fatalf("edge not canonical: %+v", e)
	}
}

func TestSelfLoopDropped(t *testing.T) {
	b := NewBuilder(3)
	if err := b.AddEdge(1, 1); err != nil {
		t.Fatal(err)
	}
	if err := b.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	g := b.Build()
	if g.NumEdges() != 1 {
		t.Fatalf("self-loop not dropped: %d edges", g.NumEdges())
	}
}

func TestSelfLoopStrictRejected(t *testing.T) {
	b := NewBuilder(3)
	if err := b.AddEdgeStrict(1, 1); err == nil {
		t.Fatal("AddEdgeStrict accepted a self-loop")
	}
}

func TestDuplicatesCollapsed(t *testing.T) {
	b := NewBuilder(3)
	for i := 0; i < 5; i++ {
		if err := b.AddEdge(0, 1); err != nil {
			t.Fatal(err)
		}
		if err := b.AddEdge(1, 0); err != nil {
			t.Fatal(err)
		}
	}
	g := b.Build()
	if g.NumEdges() != 1 {
		t.Fatalf("duplicates not collapsed: %d edges", g.NumEdges())
	}
}

func TestBuildStrictDetectsDuplicates(t *testing.T) {
	b := NewBuilder(3)
	_ = b.AddEdge(0, 1)
	_ = b.AddEdge(1, 0)
	if _, err := b.BuildStrict(); err == nil {
		t.Fatal("BuildStrict accepted duplicate edge")
	}
}

func TestOutOfRangeRejected(t *testing.T) {
	b := NewBuilder(3)
	if err := b.AddEdge(0, 3); err == nil {
		t.Fatal("accepted out-of-range vertex")
	}
	if err := b.AddEdge(-1, 0); err == nil {
		t.Fatal("accepted negative vertex")
	}
}

func TestGrowingBuilder(t *testing.T) {
	b := NewGrowingBuilder()
	if err := b.AddEdge(0, 100); err != nil {
		t.Fatal(err)
	}
	g := b.Build()
	if g.NumVertices() != 101 {
		t.Fatalf("growing builder vertex count %d, want 101", g.NumVertices())
	}
}

func TestFindEdge(t *testing.T) {
	g := k4(t)
	for u := Vertex(0); u < 4; u++ {
		for v := Vertex(0); v < 4; v++ {
			id, ok := g.FindEdge(u, v)
			if u == v {
				if ok {
					t.Fatalf("FindEdge(%d,%d) found a self-loop", u, v)
				}
				continue
			}
			if !ok {
				t.Fatalf("FindEdge(%d,%d) missing in K4", u, v)
			}
			e := g.Edge(id)
			if !(e.U == u && e.V == v) && !(e.U == v && e.V == u) {
				t.Fatalf("FindEdge(%d,%d) returned edge %+v", u, v, e)
			}
		}
	}
	if _, ok := path(t, 5).FindEdge(0, 4); ok {
		t.Fatal("FindEdge found non-existent edge in path")
	}
}

func TestEdgeOther(t *testing.T) {
	e := Edge{U: 2, V: 7}
	if e.Other(2) != 7 || e.Other(7) != 2 {
		t.Fatal("Other returned wrong endpoint")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Other with non-endpoint did not panic")
		}
	}()
	e.Other(3)
}

func TestIncidentEdgesConsistency(t *testing.T) {
	g := k4(t)
	for v := Vertex(0); v < 4; v++ {
		nbrs := g.Neighbors(v)
		eids := g.IncidentEdges(v)
		if len(nbrs) != len(eids) {
			t.Fatalf("vertex %d: %d neighbours but %d incident edges", v, len(nbrs), len(eids))
		}
		for i, w := range nbrs {
			e := g.Edge(eids[i])
			if e.Other(v) != w {
				t.Fatalf("vertex %d slot %d: edge %+v does not connect to neighbour %d", v, i, e, w)
			}
		}
	}
}

func TestEdgeIDsDeterministic(t *testing.T) {
	// Same edge set in different insertion orders must yield identical
	// EdgeID assignment (edges are sorted canonically at build).
	edges := []Edge{{0, 1}, {1, 2}, {2, 3}, {0, 3}, {1, 3}}
	g1, err := FromEdges(4, edges)
	if err != nil {
		t.Fatal(err)
	}
	rev := make([]Edge, len(edges))
	for i, e := range edges {
		rev[len(edges)-1-i] = Edge{U: e.V, V: e.U} // also flip orientation
	}
	b := NewBuilder(4)
	for _, e := range rev {
		if err := b.AddEdge(e.U, e.V); err != nil {
			t.Fatal(err)
		}
	}
	g2 := b.Build()
	if g1.NumEdges() != g2.NumEdges() {
		t.Fatal("edge counts differ")
	}
	for i := 0; i < g1.NumEdges(); i++ {
		if g1.Edge(EdgeID(i)) != g2.Edge(EdgeID(i)) {
			t.Fatalf("EdgeID %d differs: %+v vs %+v", i, g1.Edge(EdgeID(i)), g2.Edge(EdgeID(i)))
		}
	}
}

func TestFromEdgesRejectsBadInput(t *testing.T) {
	if _, err := FromEdges(3, []Edge{{1, 1}}); err == nil {
		t.Fatal("FromEdges accepted self-loop")
	}
	if _, err := FromEdges(2, []Edge{{0, 5}}); err == nil {
		t.Fatal("FromEdges accepted out-of-range edge")
	}
	if g, err := FromEdges(3, []Edge{{0, 1}, {1, 0}}); err == nil {
		t.Fatalf("FromEdges collapsed a duplicate edge into %d edge(s)", g.NumEdges())
	}
	if g, err := FromEdges(3, []Edge{{2, 0}, {0, 1}}); err != nil || g.NumEdges() != 2 {
		t.Fatalf("FromEdges on distinct edges: %v", err)
	}
}

func TestMustFromEdgesPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustFromEdges did not panic on bad input")
		}
	}()
	MustFromEdges(1, []Edge{{0, 0}})
}

// Property: for a random graph, the sum of degrees equals 2m and every
// adjacency entry is mirrored.
func TestAdjacencySymmetryProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 2 + r.Intn(50)
		b := NewBuilder(n)
		for i := 0; i < 3*n; i++ {
			u, v := Vertex(r.Intn(n)), Vertex(r.Intn(n))
			if err := b.AddEdge(u, v); err != nil {
				return false
			}
		}
		g := b.Build()
		degSum := 0
		for v := 0; v < n; v++ {
			degSum += g.Degree(Vertex(v))
			for _, w := range g.Neighbors(Vertex(v)) {
				if !g.HasEdge(w, Vertex(v)) {
					return false
				}
			}
		}
		return degSum == 2*g.NumEdges()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkBuild(b *testing.B) {
	r := rng.New(1)
	const n = 10000
	edges := make([]Edge, 0, 5*n)
	for i := 0; i < 5*n; i++ {
		u, v := Vertex(r.Intn(n)), Vertex(r.Intn(n))
		if u != v {
			if u > v {
				u, v = v, u
			}
			edges = append(edges, Edge{u, v})
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bl := NewBuilder(n)
		for _, e := range edges {
			_ = bl.AddEdge(e.U, e.V)
		}
		_ = bl.Build()
	}
}

func BenchmarkFindEdge(b *testing.B) {
	r := rng.New(2)
	const n = 10000
	bl := NewBuilder(n)
	for i := 0; i < 8*n; i++ {
		_ = bl.AddEdge(Vertex(r.Intn(n)), Vertex(r.Intn(n)))
	}
	g := bl.Build()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.FindEdge(Vertex(i%n), Vertex((i*7)%n))
	}
}
