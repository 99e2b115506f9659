package engine

import (
	"math"

	"github.com/graphpart/graphpart/internal/graph"
)

// PageRank is the canonical GAS vertex program: rank flows along edges with
// damping. On an undirected graph every edge carries rank both ways, and a
// vertex's outgoing mass splits over its degree.
type PageRank struct {
	// Damping is the damping factor (default 0.85 when zero).
	Damping float64
	// Tolerance stops a vertex once its rank moves less than this
	// (default 1e-9 when zero). Zero-degree handling: isolated vertices
	// keep their initial rank.
	Tolerance float64
	// N is the vertex count, needed for the teleport term; set by
	// NewPageRank.
	N int
}

// NewPageRank returns a PageRank program for a graph with n vertices.
func NewPageRank(n int, damping, tolerance float64) *PageRank {
	if damping <= 0 || damping >= 1 {
		damping = 0.85
	}
	if tolerance <= 0 {
		tolerance = 1e-9
	}
	return &PageRank{Damping: damping, Tolerance: tolerance, N: n}
}

// Name implements Program.
func (p *PageRank) Name() string { return "pagerank" }

// Init implements Program.
func (p *PageRank) Init(_ graph.Vertex, _ int) float64 { return 1.0 / float64(p.N) }

// Gather implements Program: a vertex sends its rank split across its
// degree.
func (p *PageRank) Gather(value float64, degree int) float64 {
	if degree == 0 {
		return 0
	}
	return value / float64(degree)
}

// Sum implements Program.
func (p *PageRank) Sum(a, b float64) float64 { return a + b }

// Apply implements Program.
func (p *PageRank) Apply(_ graph.Vertex, _, gathered float64, _ int) float64 {
	return (1-p.Damping)/float64(p.N) + p.Damping*gathered
}

// Converged implements Program.
func (p *PageRank) Converged(old, new float64) bool {
	return math.Abs(old-new) < p.Tolerance
}

// SSSP computes single-source shortest paths with unit edge weights.
type SSSP struct {
	// Source is the source vertex.
	Source graph.Vertex
}

// Name implements Program.
func (s *SSSP) Name() string { return "sssp" }

// Init implements Program.
func (s *SSSP) Init(v graph.Vertex, _ int) float64 {
	if v == s.Source {
		return 0
	}
	return math.Inf(1)
}

// Gather implements Program: a vertex offers its neighbours the distance
// through itself.
func (s *SSSP) Gather(value float64, _ int) float64 { return value + 1 }

// Sum implements Program: shortest wins.
func (s *SSSP) Sum(a, b float64) float64 { return math.Min(a, b) }

// Apply implements Program: keep the best of the old and gathered distance.
func (s *SSSP) Apply(_ graph.Vertex, old, gathered float64, _ int) float64 {
	return math.Min(old, gathered)
}

// Converged implements Program: distances only improve; a vertex is settled
// when unchanged.
func (s *SSSP) Converged(old, new float64) bool { return old == new }

// Components labels every vertex with the smallest vertex id reachable from
// it (connected-components by min-label propagation).
type Components struct{}

// Name implements Program.
func (c *Components) Name() string { return "components" }

// Init implements Program.
func (c *Components) Init(v graph.Vertex, _ int) float64 { return float64(v) }

// Gather implements Program: a vertex sends its label.
func (c *Components) Gather(value float64, _ int) float64 { return value }

// Sum implements Program.
func (c *Components) Sum(a, b float64) float64 { return math.Min(a, b) }

// Apply implements Program.
func (c *Components) Apply(_ graph.Vertex, old, gathered float64, _ int) float64 {
	return math.Min(old, gathered)
}

// Converged implements Program.
func (c *Components) Converged(old, new float64) bool { return old == new }
