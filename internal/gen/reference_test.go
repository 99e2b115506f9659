package gen

import (
	"sort"
	"testing"

	"github.com/graphpart/graphpart/internal/graph"
)

// Reference graph measures the generator tests check structure against.
// They are exact and meant for the small graphs built here.

// TriangleCount returns the exact number of triangles in g using the
// forward (oriented neighbour intersection) algorithm. O(m^{3/2}) worst
// case.
func TriangleCount(g *graph.Graph) int64 {
	var count int64
	n := g.NumVertices()
	for u := 0; u < n; u++ {
		uu := graph.Vertex(u)
		nu := g.Neighbors(uu)
		for _, v := range nu {
			if v <= uu {
				continue
			}
			// Intersect higher neighbours of u and v.
			count += countCommonAbove(nu, g.Neighbors(v), v)
		}
	}
	return count
}

// countCommonAbove counts values present in both sorted slices that are
// strictly greater than floor.
func countCommonAbove(a, b []graph.Vertex, floor graph.Vertex) int64 {
	i := sort.Search(len(a), func(i int) bool { return a[i] > floor })
	j := sort.Search(len(b), func(i int) bool { return b[i] > floor })
	var c int64
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			c++
			i++
			j++
		}
	}
	return c
}

// GlobalClusteringCoefficient returns 3*triangles / open-and-closed-wedges,
// or 0 if the graph has no wedges.
func GlobalClusteringCoefficient(g *graph.Graph) float64 {
	var wedges int64
	for v := 0; v < g.NumVertices(); v++ {
		d := int64(g.Degree(graph.Vertex(v)))
		wedges += d * (d - 1) / 2
	}
	if wedges == 0 {
		return 0
	}
	return 3 * float64(TriangleCount(g)) / float64(wedges)
}

// Diameter2Sweep estimates the graph diameter with the classic double-sweep
// lower bound: BFS from src to the farthest vertex f, then BFS from f; the
// greatest depth reached is returned. Exact on trees, a lower bound
// otherwise.
func Diameter2Sweep(g *graph.Graph, src graph.Vertex) int {
	far, _ := farthest(g, src)
	_, depth := farthest(g, far)
	return depth
}

// farthest runs a BFS from src and returns the first vertex it reaches at
// the greatest depth, with that depth.
func farthest(g *graph.Graph, src graph.Vertex) (graph.Vertex, int) {
	depth := make([]int, g.NumVertices())
	for i := range depth {
		depth[i] = -1
	}
	depth[src] = 0
	best := src
	for queue := []graph.Vertex{src}; len(queue) > 0; queue = queue[1:] {
		v := queue[0]
		if depth[v] > depth[best] {
			best = v
		}
		for _, w := range g.Neighbors(v) {
			if depth[w] < 0 {
				depth[w] = depth[v] + 1
				queue = append(queue, w)
			}
		}
	}
	return best, depth[best]
}

// k4 returns the complete graph on 4 vertices.
func k4(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := graph.FromEdges(4, []graph.Edge{{U: 0, V: 1}, {U: 0, V: 2}, {U: 0, V: 3}, {U: 1, V: 2}, {U: 1, V: 3}, {U: 2, V: 3}})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// path returns the path graph 0-1-2-...-(n-1).
func path(t *testing.T, n int) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(n)
	for i := 0; i < n-1; i++ {
		if err := b.AddEdge(graph.Vertex(i), graph.Vertex(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	return b.Build()
}

// twoTriangles returns two disjoint triangles: {0,1,2} and {3,4,5}.
func twoTriangles(t *testing.T) *graph.Graph {
	t.Helper()
	return graph.MustFromEdges(6, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 0, V: 2}, {U: 3, V: 4}, {U: 4, V: 5}, {U: 3, V: 5}})
}

func TestDiameter2Sweep(t *testing.T) {
	if d := Diameter2Sweep(path(t, 10), 4); d != 9 {
		t.Fatalf("path diameter estimate %d, want 9", d)
	}
	if d := Diameter2Sweep(k4(t), 0); d != 1 {
		t.Fatalf("K4 diameter estimate %d, want 1", d)
	}
}

func TestTriangleCount(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
		want int64
	}{
		{"K4", k4(t), 4},
		{"two triangles", twoTriangles(t), 2},
		{"path", path(t, 6), 0},
		{"empty", graph.NewBuilder(3).Build(), 0},
	}
	for _, tc := range cases {
		if got := TriangleCount(tc.g); got != tc.want {
			t.Errorf("%s: TriangleCount = %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestGlobalClusteringCoefficient(t *testing.T) {
	// K4: every wedge closes -> coefficient 1.
	if c := GlobalClusteringCoefficient(k4(t)); c != 1 {
		t.Fatalf("K4 clustering %v, want 1", c)
	}
	if c := GlobalClusteringCoefficient(path(t, 5)); c != 0 {
		t.Fatalf("path clustering %v, want 0", c)
	}
	if c := GlobalClusteringCoefficient(graph.NewBuilder(2).Build()); c != 0 {
		t.Fatalf("edgeless clustering %v, want 0", c)
	}
}
