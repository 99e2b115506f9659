package engine

import (
	"math"

	"github.com/graphpart/graphpart/internal/graph"
)

// degreeCount verifies the engine against ground truth: after one superstep
// every vertex's value equals its degree.
type degreeCount struct{}

// Name implements Program.
func (d *degreeCount) Name() string { return "degree-count" }

// Init implements Program.
func (d *degreeCount) Init(_ graph.Vertex, _ int) float64 { return 0 }

// Gather implements Program: each incident edge contributes one.
func (d *degreeCount) Gather(_ float64, _ int) float64 { return 1 }

// Sum implements Program.
func (d *degreeCount) Sum(a, b float64) float64 { return a + b }

// Apply implements Program.
func (d *degreeCount) Apply(_ graph.Vertex, _, gathered float64, _ int) float64 { return gathered }

// Converged implements Program: one superstep suffices.
func (d *degreeCount) Converged(old, new float64) bool { return old == new }

// referencePageRank computes PageRank single-machine for verification.
func referencePageRank(g *graph.Graph, damping float64, iters int) []float64 {
	n := g.NumVertices()
	if damping <= 0 || damping >= 1 {
		damping = 0.85
	}
	cur := make([]float64, n)
	next := make([]float64, n)
	for v := range cur {
		cur[v] = 1.0 / float64(n)
	}
	for it := 0; it < iters; it++ {
		for v := 0; v < n; v++ {
			var sum float64
			for _, u := range g.Neighbors(graph.Vertex(v)) {
				sum += cur[u] / float64(g.Degree(u))
			}
			next[v] = (1-damping)/float64(n) + damping*sum
		}
		cur, next = next, cur
	}
	return cur
}

// referenceSSSP computes unit-weight shortest paths by BFS.
func referenceSSSP(g *graph.Graph, src graph.Vertex) []float64 {
	n := g.NumVertices()
	dist := make([]float64, n)
	for v := range dist {
		dist[v] = math.Inf(1)
	}
	dist[src] = 0
	queue := []graph.Vertex{src}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, u := range g.Neighbors(v) {
			if math.IsInf(dist[u], 1) {
				dist[u] = dist[v] + 1
				queue = append(queue, u)
			}
		}
	}
	return dist
}
