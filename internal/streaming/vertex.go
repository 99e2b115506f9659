package streaming

import (
	"math"

	"github.com/graphpart/graphpart/internal/graph"
	"github.com/graphpart/graphpart/internal/metis"
	"github.com/graphpart/graphpart/internal/partition"
	"github.com/graphpart/graphpart/internal/rng"
	"github.com/graphpart/graphpart/internal/source"
)

// LDG is the Linear Deterministic Greedy streaming vertex partitioner
// (Stanton & Kliot, KDD 2012): each arriving vertex goes to the partition
// holding most of its already-placed neighbours, damped by a load penalty
// (1 - |P_i| / C). Vertices arrive in a seeded random order. The edge
// partitioning is then derived from the vertex partition the same way as
// for the METIS baseline.
type LDG struct {
	seed uint64
}

var _ partition.Partitioner = (*LDG)(nil)

// NewLDG returns an LDG streamer.
func NewLDG(seed uint64) *LDG { return &LDG{seed: seed} }

// Name implements partition.Partitioner.
func (x *LDG) Name() string { return "LDG" }

// Partition implements partition.Partitioner.
func (x *LDG) Partition(g *graph.Graph, p int) (*partition.Assignment, error) {
	labels, err := x.VertexPartition(g, p)
	if err != nil {
		return nil, err
	}
	return metis.DeriveEdgePartition(source.FromGraph(g, source.OrderNatural, 0), labels, p)
}

// VertexPartition streams the vertices and returns their part labels.
func (x *LDG) VertexPartition(g *graph.Graph, p int) ([]int32, error) {
	if err := validateInput(g, p); err != nil {
		return nil, err
	}
	return placeVertices(g, p, shuffledVertices(g.NumVertices(), x.seed), ldgChooser(g.NumVertices(), p)), nil
}

// chooser places one vertex of a vertex stream: given row[k], how many of
// its neighbours part k already holds, and the parts' vertex loads, it
// returns the part to place it in.
type chooser func(row []int32, loads []int) int

// ldgChooser is LDG's placement rule for a graph of n vertices: the part
// holding most of the vertex's placed neighbours (row), damped by the load
// penalty 1 - |P_k|/C with C = n/p + 1; full parts are never chosen, and
// ties go to the lighter part.
func ldgChooser(n, p int) chooser {
	capV := float64(n)/float64(p) + 1
	return func(row []int32, loads []int) int {
		best, bestScore := 0, math.Inf(-1)
		for k := 0; k < p; k++ {
			score := float64(row[k]) * (1 - float64(loads[k])/capV)
			if loads[k] >= int(capV) {
				score = math.Inf(-1) // full
			}
			if score > bestScore || (score == bestScore && loads[k] < loads[best]) {
				best, bestScore = k, score
			}
		}
		return best
	}
}

// placeVertices is the placement loop of LDG and FENNEL: it visits the
// vertices in order and places each with choose, given how many of its
// neighbours each part already holds.
func placeVertices(g *graph.Graph, p int, order []graph.Vertex, choose chooser) []int32 {
	labels := make([]int32, g.NumVertices())
	for i := range labels {
		labels[i] = -1
	}
	loads := make([]int, p)
	nbrIn := make([]int32, p)
	for _, v := range order {
		clear(nbrIn)
		for _, u := range g.Neighbors(v) {
			if l := labels[u]; l >= 0 {
				nbrIn[l]++
			}
		}
		k := choose(nbrIn, loads)
		labels[v] = int32(k)
		loads[k]++
	}
	return labels
}

// shuffledVertices is the vertex arrival order of LDG and FENNEL: the n
// vertices in a random order drawn from seed.
func shuffledVertices(n int, seed uint64) []graph.Vertex {
	perm := rng.New(seed).Perm(n)
	out := make([]graph.Vertex, n)
	for i, v := range perm {
		out[i] = graph.Vertex(v)
	}
	return out
}

// FENNEL is the single-pass streaming vertex partitioner of Tsourakakis et
// al. (WSDM 2014): score(v, P_i) = |N(v) ∩ P_i| - alpha*gamma*|P_i|^(gamma-1)
// with gamma = 1.5 and alpha chosen from the graph size. Vertices arrive in
// a seeded random order, as for LDG.
type FENNEL struct {
	seed uint64
}

var _ partition.Partitioner = (*FENNEL)(nil)

// NewFENNEL returns a FENNEL streamer.
func NewFENNEL(seed uint64) *FENNEL { return &FENNEL{seed: seed} }

// Name implements partition.Partitioner.
func (x *FENNEL) Name() string { return "FENNEL" }

// Partition implements partition.Partitioner.
func (x *FENNEL) Partition(g *graph.Graph, p int) (*partition.Assignment, error) {
	labels, err := x.VertexPartition(g, p)
	if err != nil {
		return nil, err
	}
	return metis.DeriveEdgePartition(source.FromGraph(g, source.OrderNatural, 0), labels, p)
}

// VertexPartition streams the vertices and returns their part labels.
func (x *FENNEL) VertexPartition(g *graph.Graph, p int) ([]int32, error) {
	if err := validateInput(g, p); err != nil {
		return nil, err
	}
	return placeVertices(g, p, shuffledVertices(g.NumVertices(), x.seed),
		fennelChooser(g.NumVertices(), g.NumEdges(), p)), nil
}

// fennelChooser is FENNEL's placement rule for a graph of n vertices and m
// edges: the part maximising |N(v) ∩ P_k| - alpha*gamma*|P_k|^(gamma-1)
// with alpha = sqrt(p)*m/n^gamma, ties to the lighter part. A hard cap of
// nu*n/p vertices per part keeps the derived edge partition from
// degenerating when the penalty term underflows.
func fennelChooser(n, m, p int) chooser {
	const gamma = 1.5 // the canonical exponent of the FENNEL paper
	alpha := math.Sqrt(float64(p)) * float64(m) / math.Pow(float64(n), gamma)
	if alpha <= 0 || math.IsNaN(alpha) {
		alpha = 1
	}
	const nu = 1.1
	capV := int(nu*float64(n)/float64(p)) + 1
	return func(row []int32, loads []int) int {
		best, bestScore := 0, math.Inf(-1)
		for k := 0; k < p; k++ {
			if loads[k] >= capV {
				continue
			}
			score := float64(row[k]) - alpha*gamma*math.Pow(float64(loads[k]), gamma-1)
			if score > bestScore || (score == bestScore && loads[k] < loads[best]) {
				best, bestScore = k, score
			}
		}
		return best
	}
}
