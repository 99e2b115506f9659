package streaming

import (
	"math"

	"github.com/graphpart/graphpart/internal/graph"
	"github.com/graphpart/graphpart/internal/metis"
	"github.com/graphpart/graphpart/internal/partition"
	"github.com/graphpart/graphpart/internal/rng"
	"github.com/graphpart/graphpart/internal/source"
)

// graphBacked is implemented by sources wrapping a materialized graph
// (source.GraphSource). Vertex streamers use it to keep their legacy
// byte-identical path; everything else runs the degree-sketch variant.
type graphBacked interface {
	Graph() *graph.Graph
}

// LDG is the Linear Deterministic Greedy streaming vertex partitioner
// (Stanton & Kliot, KDD 2012): each arriving vertex goes to the partition
// holding most of its already-placed neighbours, damped by a load penalty
// (1 - |P_i| / C). The edge partitioning is then derived from the vertex
// partition the same way as for the METIS baseline.
type LDG struct {
	seed  uint64
	order Order
}

var (
	_ partition.Partitioner       = (*LDG)(nil)
	_ partition.StreamPartitioner = (*LDG)(nil)
)

// NewLDG returns an LDG streamer.
func NewLDG(seed uint64, order Order) *LDG {
	if order == 0 {
		order = OrderShuffled
	}
	return &LDG{seed: seed, order: order}
}

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

// PartitionStream implements partition.StreamPartitioner. Graph-backed
// sources take the exact legacy path (byte-identical results); true edge
// streams run the two-pass degree-sketch variant (see streamVertexLabels),
// which approximates vertex adjacency from the edge stream in O(n·p)
// memory without a CSR.
func (x *LDG) PartitionStream(src source.EdgeSource, p int) (*partition.Assignment, error) {
	if err := validateSource(src, p); err != nil {
		return nil, err
	}
	if gb, ok := src.(graphBacked); ok {
		return x.Partition(gb.Graph(), p)
	}
	labels, err := streamVertexLabels(src, p, ldgChooser(src.NumVertices(), p))
	if err != nil {
		return nil, err
	}
	return metis.DeriveEdgePartition(src, labels, p)
}

// VertexPartition streams the vertices and returns their part labels.
func (x *LDG) VertexPartition(g *graph.Graph, p int) ([]int32, error) {
	if err := validateInput(g, p); err != nil {
		return nil, err
	}
	return placeVertices(g, p, x.vertexOrder(g), ldgChooser(g.NumVertices(), p)), nil
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

// placeVertices is the graph path of LDG and FENNEL: it visits the vertices
// in order and places each with choose, given how many of its neighbours
// each part already holds.
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

func (x *LDG) vertexOrder(g *graph.Graph) []graph.Vertex {
	n := g.NumVertices()
	switch x.order {
	case OrderNatural:
		out := make([]graph.Vertex, n)
		for i := range out {
			out[i] = graph.Vertex(i)
		}
		return out
	case OrderBFS:
		return source.VertexBFSOrder(g, rng.New(x.seed))
	default:
		r := rng.New(x.seed)
		perm := r.Perm(n)
		out := make([]graph.Vertex, n)
		for i, v := range perm {
			out[i] = graph.Vertex(v)
		}
		return out
	}
}

// FENNEL is the single-pass streaming vertex partitioner of Tsourakakis et
// al. (WSDM 2014): score(v, P_i) = |N(v) ∩ P_i| - alpha*gamma*|P_i|^(gamma-1)
// with gamma = 1.5 and alpha chosen from the graph size.
type FENNEL struct {
	seed  uint64
	order Order
	gamma float64
}

var (
	_ partition.Partitioner       = (*FENNEL)(nil)
	_ partition.StreamPartitioner = (*FENNEL)(nil)
)

// NewFENNEL returns a FENNEL streamer; gamma <= 1 defaults to 1.5.
func NewFENNEL(seed uint64, order Order, gamma float64) *FENNEL {
	if order == 0 {
		order = OrderShuffled
	}
	if gamma <= 1 {
		gamma = 1.5
	}
	return &FENNEL{seed: seed, order: order, gamma: gamma}
}

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

// PartitionStream implements partition.StreamPartitioner; see
// LDG.PartitionStream for the graph fast path / degree-sketch split.
func (x *FENNEL) PartitionStream(src source.EdgeSource, p int) (*partition.Assignment, error) {
	if err := validateSource(src, p); err != nil {
		return nil, err
	}
	if gb, ok := src.(graphBacked); ok {
		return x.Partition(gb.Graph(), p)
	}
	labels, err := streamVertexLabels(src, p, fennelChooser(src.NumVertices(), src.NumEdges(), p, x.gamma))
	if err != nil {
		return nil, err
	}
	return metis.DeriveEdgePartition(src, labels, p)
}

// VertexPartition streams the vertices and returns their part labels.
func (x *FENNEL) VertexPartition(g *graph.Graph, p int) ([]int32, error) {
	if err := validateInput(g, p); err != nil {
		return nil, err
	}
	ldg := LDG{seed: x.seed, order: x.order}
	return placeVertices(g, p, ldg.vertexOrder(g),
		fennelChooser(g.NumVertices(), g.NumEdges(), p, x.gamma)), nil
}

// fennelChooser is FENNEL's placement rule for a graph of n vertices and m
// edges: the part maximising |N(v) ∩ P_k| - alpha*gamma*|P_k|^(gamma-1)
// with alpha = sqrt(p)*m/n^gamma, ties to the lighter part. A hard cap of
// nu*n/p vertices per part keeps the derived edge partition from
// degenerating when the penalty term underflows.
func fennelChooser(n, m, p int, gamma float64) chooser {
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

// streamVertexLabels is the two-pass degree-sketch vertex placement used by
// LDG/FENNEL on true edge streams, where vertex adjacency lists are not
// available.
//
// Pass 1 counts degrees. Pass 2 replays the stream and places a vertex the
// moment its last incident edge arrives ("stream completion order" — a
// different arrival order from the configured vertex order, so results
// differ from the graph path by design). Placed-neighbour counts are
// maintained in an n×p matrix (documented O(n·p) memory): when an edge
// arrives with one endpoint already placed, the other endpoint is credited
// immediately; when placing an endpoint completes, the current edge's other
// endpoint is credited afterwards. Edges between two vertices that are both
// unplaced when the edge passes — and stay unplaced — are the sketch's
// information loss. Degree-0 vertices are swept in id order at the end.
// A final pass derives the edge placement (metis.DeriveEdgePartition).
//
// The loss is large: on a shuffled replay of G1s (seed 42) at p=4 the
// stream path's RF is 3.815 for LDG and 3.705 for FENNEL, against 2.750
// and 2.380 on the graph path and 3.995 for Random; at p=10 it is 6.830
// and 7.125 against 4.400 and 4.520 (Random 8.990). DESIGN.md §9 has the
// table.
func streamVertexLabels(src source.EdgeSource, p int, choose chooser) ([]int32, error) {
	n := src.NumVertices()
	deg := make([]int32, n)
	err := forEachEdge(src, func(e source.Edge) {
		deg[e.U]++
		deg[e.V]++
	})
	if err != nil {
		return nil, err
	}
	labels := make([]int32, n)
	for i := range labels {
		labels[i] = -1
	}
	loads := make([]int, p)
	nbrIn := make([]int32, n*p)
	remaining := deg // pass 2 counts the same array back down to zero
	place := func(v graph.Vertex) {
		row := nbrIn[int(v)*p : int(v)*p+p]
		k := choose(row, loads)
		labels[v] = int32(k)
		loads[k]++
	}
	credit := func(v graph.Vertex, from graph.Vertex) {
		if labels[v] < 0 {
			nbrIn[int(v)*p+int(labels[from])]++
		}
	}
	err = forEachEdge(src, func(e source.Edge) {
		remaining[e.U]--
		remaining[e.V]--
		if labels[e.U] >= 0 {
			credit(e.V, e.U)
		}
		if labels[e.V] >= 0 {
			credit(e.U, e.V)
		}
		if labels[e.U] < 0 && remaining[e.U] == 0 {
			place(e.U)
			credit(e.V, e.U)
		}
		if labels[e.V] < 0 && remaining[e.V] == 0 {
			place(e.V)
			credit(e.U, e.V)
		}
	})
	if err != nil {
		return nil, err
	}
	for v := 0; v < n; v++ {
		if labels[v] < 0 { // degree-0 vertices never complete
			place(graph.Vertex(v))
		}
	}
	return labels, nil
}
