package graph

import (
	"fmt"
	"math"
	"sort"
)

// Stats summarises the structure of a graph; used by the dataset registry to
// report Table III analogues and by tests to sanity-check generators.
type Stats struct {
	Vertices   int
	Edges      int
	MinDegree  int
	MaxDegree  int
	AvgDegree  float64
	MedDegree  float64
	Components int
	// LargestComponentFrac is the fraction of vertices in the largest
	// connected component.
	LargestComponentFrac float64
	// DegreeGini is the Gini coefficient of the degree distribution; a
	// cheap skewness signal (power-law graphs score high, regular graphs
	// near zero).
	DegreeGini float64
}

// ComputeStats calculates Stats for g.
func ComputeStats(g *Graph) Stats {
	n := g.NumVertices()
	s := Stats{Vertices: n, Edges: g.NumEdges(), AvgDegree: g.AvgDegree()}
	if n == 0 {
		return s
	}
	degs := make([]int, n)
	s.MinDegree = math.MaxInt
	for v := 0; v < n; v++ {
		d := g.Degree(Vertex(v))
		degs[v] = d
		if d < s.MinDegree {
			s.MinDegree = d
		}
		if d > s.MaxDegree {
			s.MaxDegree = d
		}
	}
	sort.Ints(degs)
	if n%2 == 1 {
		s.MedDegree = float64(degs[n/2])
	} else {
		s.MedDegree = float64(degs[n/2-1]+degs[n/2]) / 2
	}
	s.DegreeGini = gini(degs)
	labels, count := ConnectedComponents(g)
	s.Components = count
	sizes := make([]int, count)
	for _, l := range labels {
		sizes[l]++
	}
	largest := 0
	for _, sz := range sizes {
		if sz > largest {
			largest = sz
		}
	}
	s.LargestComponentFrac = float64(largest) / float64(n)
	return s
}

// gini computes the Gini coefficient of a sorted non-negative sample.
func gini(sorted []int) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	var sum, weighted float64
	for i, d := range sorted {
		sum += float64(d)
		weighted += float64(i+1) * float64(d)
	}
	if sum == 0 {
		return 0
	}
	return (2*weighted - float64(n+1)*sum) / (float64(n) * sum)
}

// String renders the stats on one line.
func (s Stats) String() string {
	return fmt.Sprintf("V=%d E=%d deg[min=%d med=%.1f avg=%.2f max=%d gini=%.2f] comps=%d (largest %.1f%%)",
		s.Vertices, s.Edges, s.MinDegree, s.MedDegree, s.AvgDegree, s.MaxDegree, s.DegreeGini,
		s.Components, 100*s.LargestComponentFrac)
}
