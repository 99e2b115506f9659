package graph

import (
	"testing"
)

// twoTriangles returns two disjoint triangles: {0,1,2} and {3,4,5}.
func twoTriangles(t *testing.T) *Graph {
	t.Helper()
	return MustFromEdges(6, []Edge{{0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}, {3, 5}})
}

func TestConnectedComponents(t *testing.T) {
	g := twoTriangles(t)
	labels, count := ConnectedComponents(g)
	if count != 2 {
		t.Fatalf("count=%d, want 2", count)
	}
	if labels[0] != labels[1] || labels[1] != labels[2] {
		t.Fatal("triangle 1 split across components")
	}
	if labels[3] != labels[4] || labels[4] != labels[5] {
		t.Fatal("triangle 2 split across components")
	}
	if labels[0] == labels[3] {
		t.Fatal("disjoint triangles merged")
	}
}

func TestConnectedComponentsIsolated(t *testing.T) {
	g := NewBuilder(4).Build()
	_, count := ConnectedComponents(g)
	if count != 4 {
		t.Fatalf("4 isolated vertices formed %d components", count)
	}
}

func TestComputeStats(t *testing.T) {
	g := MustFromEdges(6, []Edge{{0, 1}, {1, 2}, {0, 2}, {3, 4}})
	s := ComputeStats(g)
	if s.Vertices != 6 || s.Edges != 4 {
		t.Fatalf("stats size wrong: %+v", s)
	}
	if s.MinDegree != 0 || s.MaxDegree != 2 {
		t.Fatalf("degree range wrong: %+v", s)
	}
	if s.Components != 3 {
		t.Fatalf("components = %d, want 3", s.Components)
	}
	if s.LargestComponentFrac != 0.5 {
		t.Fatalf("largest frac = %v, want 0.5", s.LargestComponentFrac)
	}
	if s.String() == "" {
		t.Fatal("String() empty")
	}
}

func TestComputeStatsEmpty(t *testing.T) {
	s := ComputeStats(NewBuilder(0).Build())
	if s.Vertices != 0 || s.Edges != 0 || s.Components != 0 {
		t.Fatalf("empty stats: %+v", s)
	}
}

func TestGiniUniform(t *testing.T) {
	if g := gini([]int{5, 5, 5, 5}); g != 0 {
		t.Fatalf("uniform gini %v, want 0", g)
	}
	// Extreme inequality approaches 1.
	skew := make([]int, 100)
	skew[99] = 1000
	if g := gini(skew); g < 0.9 {
		t.Fatalf("skewed gini %v, want near 1", g)
	}
	if g := gini(nil); g != 0 {
		t.Fatalf("nil gini %v", g)
	}
	if g := gini([]int{0, 0}); g != 0 {
		t.Fatalf("all-zero gini %v", g)
	}
}
