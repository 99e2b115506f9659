package gen

import (
	"sort"

	"github.com/graphpart/graphpart/internal/graph"
	"github.com/graphpart/graphpart/internal/rng"
)

// ErdosRenyi generates G(n, m): exactly m distinct uniform random edges
// (fewer if m exceeds the number of possible edges).
func ErdosRenyi(n, m int, r *rng.RNG) *graph.Graph {
	if n < 2 {
		return graph.NewBuilder(n).Build()
	}
	maxEdges := int64(n) * int64(n-1) / 2
	if int64(m) > maxEdges {
		m = int(maxEdges)
	}
	acc := newEdgeAccum(n, m)
	for acc.count() < m {
		acc.add(graph.Vertex(r.Intn(n)), graph.Vertex(r.Intn(n)))
	}
	return acc.build()
}

// BarabasiAlbert generates a preferential-attachment graph: vertices arrive
// one at a time and connect to edgesPerVertex existing vertices chosen
// proportionally to degree (with replacement collapsed, so early vertices
// may receive slightly fewer edges).
func BarabasiAlbert(n, edgesPerVertex int, r *rng.RNG) *graph.Graph {
	if edgesPerVertex < 1 {
		edgesPerVertex = 1
	}
	b := graph.NewBuilder(maxInt(n, 0))
	if n <= 1 {
		return b.Build()
	}
	// targets holds one entry per edge endpoint, so uniform sampling from
	// it is degree-proportional sampling.
	targets := make([]graph.Vertex, 0, 2*n*edgesPerVertex)
	// Seed with a small clique so early attachment has somewhere to go.
	seed := minInt(edgesPerVertex+1, n)
	for u := 0; u < seed; u++ {
		for v := u + 1; v < seed; v++ {
			_ = b.AddEdge(graph.Vertex(u), graph.Vertex(v))
			targets = append(targets, graph.Vertex(u), graph.Vertex(v))
		}
	}
	for v := seed; v < n; v++ {
		chosen := map[graph.Vertex]struct{}{}
		for len(chosen) < edgesPerVertex && len(chosen) < v {
			var t graph.Vertex
			if len(targets) == 0 {
				t = graph.Vertex(r.Intn(v))
			} else {
				t = targets[r.Intn(len(targets))]
			}
			if int(t) == v {
				continue
			}
			chosen[t] = struct{}{}
		}
		// Append in sorted order: targets feeds later index-addressed
		// sampling, so map-iteration order here would make the whole
		// generator nondeterministic across runs (found by GL001).
		picked := make([]graph.Vertex, 0, len(chosen))
		for t := range chosen {
			picked = append(picked, t) //lint:ignore GL001 sorted on the next line
		}
		sort.Slice(picked, func(i, j int) bool { return picked[i] < picked[j] })
		for _, t := range picked {
			_ = b.AddEdge(graph.Vertex(v), t)
			targets = append(targets, graph.Vertex(v), t)
		}
	}
	return b.Build()
}

// RMATConfig parameterises an R-MAT (recursive matrix) generator.
type RMATConfig struct {
	// ScaleLog2 is log2 of the vertex count (n = 1<<ScaleLog2).
	ScaleLog2 int
	// Edges is the number of edge samples drawn; the realised simple
	// graph has fewer edges after dedup.
	Edges int
	// A, B, C are the recursive quadrant probabilities; D = 1-A-B-C.
	// The Graph500 defaults (0.57, 0.19, 0.19) apply when all are zero.
	A, B, C float64
}

// RMAT generates a Kronecker-like power-law graph by recursive quadrant
// descent.
func RMAT(cfg RMATConfig, r *rng.RNG) *graph.Graph {
	if cfg.A == 0 && cfg.B == 0 && cfg.C == 0 {
		cfg.A, cfg.B, cfg.C = 0.57, 0.19, 0.19
	}
	n := 1 << cfg.ScaleLog2
	b := graph.NewBuilder(n)
	for i := 0; i < cfg.Edges; i++ {
		u, v := 0, 0
		for bit := 0; bit < cfg.ScaleLog2; bit++ {
			f := r.Float64()
			switch {
			case f < cfg.A:
				// top-left: no bits set
			case f < cfg.A+cfg.B:
				v |= 1 << bit
			case f < cfg.A+cfg.B+cfg.C:
				u |= 1 << bit
			default:
				u |= 1 << bit
				v |= 1 << bit
			}
		}
		_ = b.AddEdge(graph.Vertex(u), graph.Vertex(v))
	}
	return b.Build()
}

// WattsStrogatz generates a small-world ring lattice: n vertices each
// connected to k nearest neighbours (k even), with each edge rewired to a
// uniform random endpoint with probability beta.
func WattsStrogatz(n, k int, beta float64, r *rng.RNG) *graph.Graph {
	b := graph.NewBuilder(maxInt(n, 0))
	if n < 3 || k < 2 {
		return b.Build()
	}
	if k >= n {
		k = n - 1
	}
	half := k / 2
	for u := 0; u < n; u++ {
		for j := 1; j <= half; j++ {
			v := (u + j) % n
			if r.Float64() < beta {
				// Rewire to a random non-self target.
				for tries := 0; tries < 8; tries++ {
					w := r.Intn(n)
					if w != u {
						v = w
						break
					}
				}
			}
			_ = b.AddEdge(graph.Vertex(u), graph.Vertex(v))
		}
	}
	return b.Build()
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
