package partition

import (
	"fmt"
	"math"
	mathbits "math/bits"

	"github.com/graphpart/graphpart/internal/graph"
)

// Metrics summarises the quality of a finished edge partitioning using the
// paper's measurements.
type Metrics struct {
	// P is the partition count.
	P int
	// ReplicationFactor is RF = sum_k |V(P_k)| / |V| (Definition 4), the
	// paper's headline quality metric; 1.0 means no vertex is spanned.
	ReplicationFactor float64
	// Balance is max_k |E(P_k)| / (m/p); 1.0 is perfectly balanced.
	Balance float64
	// MaxLoad / MinLoad are the extreme partition edge counts.
	MaxLoad, MinLoad int
	// SpannedVertices is the number of vertices replicated in >=2
	// partitions (mirrors exist for these).
	SpannedVertices int
	// TotalReplicas is sum_k |V(P_k)| (masters + mirrors).
	TotalReplicas int
	// Modularity holds the paper's per-partition modularity
	// M(P_k) = |E(P_k)| / |E_out(P_k)| (Definition 8). On a finished
	// partitioning |E_out(P_k)| is measured as boundary incidences: the sum
	// over v in V(P_k) of the edges incident to v that are not in P_k. That
	// is the quantity that makes Claim 1's averaging identity
	// (sum deg(v in P_k) = 2|E(P_k)| + |E_out(P_k)|) exact. A partition with
	// no external incidences gets math.Inf(1); an empty one gets 0.
	Modularity []float64
}

// String renders the headline numbers on one line.
func (m Metrics) String() string {
	return fmt.Sprintf("p=%d RF=%.3f balance=%.3f load=[%d,%d] spanned=%d",
		m.P, m.ReplicationFactor, m.Balance, m.MinLoad, m.MaxLoad, m.SpannedVertices)
}

// Compute calculates Metrics for a complete assignment of g. Unassigned
// edges are an error — call Validate first when in doubt.
func Compute(g *graph.Graph, a *Assignment) (Metrics, error) {
	m, _, err := compute(g, a)
	return m, err
}

// compute is Compute that also hands back the presence kernel it scanned,
// for callers (BuildReport) that read more off it.
func compute(g *graph.Graph, a *Assignment) (Metrics, *presence, error) {
	if a.NumEdges() != g.NumEdges() {
		return Metrics{}, nil, fmt.Errorf("partition: assignment covers %d edges, graph has %d", a.NumEdges(), g.NumEdges())
	}
	pr := presenceOf(g, a)
	if err := pr.err(); err != nil {
		return Metrics{}, nil, err
	}
	return pr.metrics(a, g.NumEdges(), graphDegree(g)), pr, nil
}

// graphDegree adapts g's degrees to the kernel's deg argument.
func graphDegree(g *graph.Graph) func(v int) int64 {
	return func(v int) int64 { return int64(g.Degree(graph.Vertex(v))) }
}

// presence is the replica kernel every metric reads: for each vertex, the
// set of partitions whose edges touch it, as w = ceil(p/64) words per
// vertex (one word in the paper's p <= 64 regime), plus the edge count of
// every partition and the lowest-numbered unassigned edge seen.
type presence struct {
	w          int
	bits       []uint64     // bits[v*w+k/64] bit k%64: partition k touches v
	internal   []int64      // internal[k]: edges counted into partition k
	unassigned graph.EdgeID // lowest unassigned edge id, or -1
}

func newPresence(n, p int) *presence {
	w := (p + 63) / 64
	return &presence{w: w, bits: make([]uint64, n*w), internal: make([]int64, p), unassigned: -1}
}

// presenceOf scans g's edges once, in id order. Unassigned edges are
// skipped and the lowest one recorded.
func presenceOf(g *graph.Graph, a *Assignment) *presence {
	pr := newPresence(g.NumVertices(), a.P())
	for id, e := range g.Edges() {
		if k, ok := a.PartitionOf(graph.EdgeID(id)); ok {
			pr.add(k, e.U, e.V)
		} else {
			pr.skip(graph.EdgeID(id))
		}
	}
	assertReplicaConsistent(g, a, pr)
	return pr
}

// add counts an edge (u, v) of partition k.
func (pr *presence) add(k int, u, v graph.Vertex) {
	word, bit := k>>6, uint64(1)<<uint(k&63)
	pr.bits[int(u)*pr.w+word] |= bit
	pr.bits[int(v)*pr.w+word] |= bit
	pr.internal[k]++
}

// skip records unassigned edge id.
func (pr *presence) skip(id graph.EdgeID) {
	if pr.unassigned < 0 || id < pr.unassigned {
		pr.unassigned = id
	}
}

// err names the lowest-numbered unassigned edge, if any.
func (pr *presence) err() error {
	if pr.unassigned >= 0 {
		return fmt.Errorf("partition: edge %d unassigned", pr.unassigned)
	}
	return nil
}

// numVertices is the vertex count the kernel was sized for.
func (pr *presence) numVertices() int { return len(pr.bits) / pr.w }

// replicas returns the number of partitions touching v.
func (pr *presence) replicas(v int) int {
	c := 0
	for _, word := range pr.bits[v*pr.w : (v+1)*pr.w] {
		c += mathbits.OnesCount64(word)
	}
	return c
}

// each calls fn for every partition touching v, in ascending order.
func (pr *presence) each(v int, fn func(k int)) {
	for j, word := range pr.bits[v*pr.w : (v+1)*pr.w] {
		for ; word != 0; word &= word - 1 {
			fn(j<<6 + mathbits.TrailingZeros64(word))
		}
	}
}

// totals returns sum_k |V(P_k)| and the number of vertices in >= 2
// partitions.
func (pr *presence) totals() (replicas, spanned int) {
	for v := 0; v < pr.numVertices(); v++ {
		c := pr.replicas(v)
		replicas += c
		if c >= 2 {
			spanned++
		}
	}
	return replicas, spanned
}

// modularity derives M(P_k) for every partition; deg(v) is v's degree in
// the partitioned graph.
func (pr *presence) modularity(deg func(v int) int64) []float64 {
	degSum := make([]int64, len(pr.internal))
	for v := 0; v < pr.numVertices(); v++ {
		d := deg(v)
		for j, word := range pr.bits[v*pr.w : (v+1)*pr.w] {
			for ; word != 0; word &= word - 1 {
				degSum[j<<6+mathbits.TrailingZeros64(word)] += d
			}
		}
	}
	return modularityFromCounts(pr.internal, degSum)
}

// metrics derives Metrics for a complete assignment of m edges; deg is as
// for modularity.
func (pr *presence) metrics(a *Assignment, m int, deg func(v int) int64) Metrics {
	p, n := len(pr.internal), pr.numVertices()
	out := Metrics{P: p, MinLoad: a.MinLoad(), MaxLoad: a.MaxLoad()}
	out.TotalReplicas, out.SpannedVertices = pr.totals()
	if n > 0 {
		// The paper divides by |V|; isolated vertices (degree 0) never
		// appear in any partition and still count in the denominator.
		out.ReplicationFactor = float64(out.TotalReplicas) / float64(n)
	}
	if m > 0 {
		out.Balance = float64(out.MaxLoad) / (float64(m) / float64(p))
	}
	out.Modularity = pr.modularity(deg)
	return out
}

// modularityFromCounts derives M(P_k) from internal edge counts and degree
// sums, with the conventions of Metrics.Modularity (0 for empty partitions,
// +Inf for partitions with no external incidences).
func modularityFromCounts(internal, degSum []int64) []float64 {
	out := make([]float64, len(internal))
	for k := range internal {
		ext := degSum[k] - 2*internal[k]
		switch {
		case internal[k] == 0:
			out[k] = 0
		case ext == 0:
			out[k] = math.Inf(1)
		default:
			out[k] = float64(internal[k]) / float64(ext)
		}
	}
	return out
}

// ReplicationFactor computes only RF; cheaper than Compute when the other
// metrics are not needed.
func ReplicationFactor(g *graph.Graph, a *Assignment) (float64, error) {
	if a.NumEdges() != g.NumEdges() {
		return 0, fmt.Errorf("partition: assignment covers %d edges, graph has %d", a.NumEdges(), g.NumEdges())
	}
	n := g.NumVertices()
	if n == 0 {
		return 0, nil
	}
	pr := presenceOf(g, a)
	if err := pr.err(); err != nil {
		return 0, err
	}
	total, _ := pr.totals()
	return float64(total) / float64(n), nil
}

// VertexSets returns V(P_k) for every partition: the vertices incident to at
// least one edge assigned to k. Unassigned edges are skipped.
func VertexSets(g *graph.Graph, a *Assignment) [][]graph.Vertex {
	p := a.P()
	// mark[v] = last partition that recorded v, to dedupe per partition.
	sets := make([][]graph.Vertex, p)
	mark := make([][]bool, p)
	for k := range mark {
		mark[k] = make([]bool, g.NumVertices())
	}
	for id, e := range g.Edges() {
		k, ok := a.PartitionOf(graph.EdgeID(id))
		if !ok {
			continue
		}
		if !mark[k][e.U] {
			mark[k][e.U] = true
			sets[k] = append(sets[k], e.U)
		}
		if !mark[k][e.V] {
			mark[k][e.V] = true
			sets[k] = append(sets[k], e.V)
		}
	}
	return sets
}

// ReplicaCount returns, for every vertex, the number of partitions whose
// edge set touches it (0 for isolated vertices). Unassigned edges are
// skipped.
func ReplicaCount(g *graph.Graph, a *Assignment) []int {
	pr := presenceOf(g, a)
	counts := make([]int, g.NumVertices())
	for v := range counts {
		counts[v] = pr.replicas(v)
	}
	return counts
}
