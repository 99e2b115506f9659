package partition

import (
	"fmt"
	mathbits "math/bits"
	"sort"

	"github.com/graphpart/graphpart/internal/graph"
	"github.com/graphpart/graphpart/internal/invariants"
)

// stateCheckInterval is the mutation-count sampling stride for the
// graphpart_invariants full-recomputation cross-check: every
// stateCheckInterval Move operations the whole incremental structure is
// compared against a from-scratch rebuild. Sampling keeps sanitizer builds
// usable — a per-move full check would turn O(1) moves into O(m).
const stateCheckInterval = 1 << 12

// partCount is one (partition, incident-edge count) entry of a sparse
// per-vertex replica set (p > 64).
type partCount struct {
	k int32
	c int32
}

// State is a mutable, incrementally maintained view over a complete edge
// assignment: per-partition loads (delegated to the Assignment), per-vertex
// replica sets, the boundary-edge index, and running replica totals, all
// updated in O(1) amortized time per Move/Swap (a move only walks a vertex's
// incident edges when its spanned status flips, i.e. when its replica count
// crosses the 1↔2 threshold).
//
// Replica sets are a presence bitset plus a dense n×p count matrix for
// p <= 64 (the paper's regime) and sorted (partition, count) slices above.
// An edge is in the boundary index iff at least one endpoint is spanned
// (replicated in >= 2 partitions) — exactly the edges whose reassignment can
// reduce the replication factor.
//
// The State owns all mutation: reassigning edges through the underlying
// Assignment directly desynchronises the incremental structures. Reads are
// safe from multiple goroutines as long as no Move/Swap is concurrent. Built
// with -tags graphpart_invariants, every stateCheckInterval-th mutation
// cross-checks the whole structure against a full recomputation.
type State struct {
	g *graph.Graph
	a *Assignment
	p int

	// Dense representation (p <= 64): counts[int(v)*p+k] is the number of
	// v's edges in partition k, bits[v] the presence bitset.
	counts []int32
	bits   []uint64
	// Sparse representation (p > 64): per-vertex entries sorted by k.
	sparse [][]partCount

	replicas      []int32 // replicas[v] = number of partitions containing v
	totalReplicas int
	spannedCount  int

	// Boundary-edge index: boundary[e] flags member edges, numBoundary
	// counts them.
	boundary    []bool
	numBoundary int

	ops int64 // mutation counter driving the sampled invariant check
}

// NewState builds the incremental view of a complete assignment in O(n + m).
// Unassigned edges are an error; capacity is not checked (refinement must
// accept over-capacity inputs and only ever improve them).
func NewState(g *graph.Graph, a *Assignment) (*State, error) {
	if g == nil {
		return nil, fmt.Errorf("partition: nil graph")
	}
	if a == nil {
		return nil, fmt.Errorf("partition: nil assignment")
	}
	if a.NumEdges() != g.NumEdges() {
		return nil, fmt.Errorf("partition: assignment covers %d edges, graph has %d", a.NumEdges(), g.NumEdges())
	}
	n := g.NumVertices()
	p := a.P()
	s := &State{
		g:        g,
		a:        a,
		p:        p,
		replicas: make([]int32, n),
		boundary: make([]bool, g.NumEdges()),
	}
	if p <= 64 {
		s.counts = make([]int32, n*p)
		s.bits = make([]uint64, n)
	} else {
		s.sparse = make([][]partCount, n)
	}
	for id, e := range g.Edges() {
		k, ok := a.PartitionOf(graph.EdgeID(id))
		if !ok {
			return nil, fmt.Errorf("partition: edge %d unassigned", id)
		}
		s.inc(e.U, k)
		if e.V != e.U {
			s.inc(e.V, k)
		}
	}
	for v := range s.replicas {
		r := s.countReplicas(graph.Vertex(v))
		s.replicas[v] = int32(r)
		s.totalReplicas += r
		if r >= 2 {
			s.spannedCount++
		}
	}
	for id, e := range g.Edges() {
		if s.replicas[e.U] >= 2 || s.replicas[e.V] >= 2 {
			s.boundary[id] = true
			s.numBoundary++
		}
	}
	return s, nil
}

// Assignment returns the underlying assignment. Callers must not mutate it
// directly while the State is live; use Move/Swap.
func (s *State) Assignment() *Assignment { return s.a }

// P returns the partition count.
func (s *State) P() int { return s.p }

// Replicas returns the number of partitions vertex v currently appears in.
func (s *State) Replicas(v graph.Vertex) int { return int(s.replicas[v]) }

// Count returns the number of v's edges currently in partition k.
func (s *State) Count(v graph.Vertex, k int) int {
	if s.counts != nil {
		return int(s.counts[int(v)*s.p+k])
	}
	row := s.sparse[v]
	i := sort.Search(len(row), func(i int) bool { return row[i].k >= int32(k) })
	if i < len(row) && row[i].k == int32(k) {
		return int(row[i].c)
	}
	return 0
}

// Partitions appends the ids of the partitions containing v to buf in
// ascending order and returns the extended slice.
func (s *State) Partitions(v graph.Vertex, buf []int) []int {
	if s.bits != nil {
		for b := s.bits[v]; b != 0; b &= b - 1 {
			buf = append(buf, mathbits.TrailingZeros64(b))
		}
		return buf
	}
	for _, pc := range s.sparse[v] {
		buf = append(buf, int(pc.k))
	}
	return buf
}

// TotalReplicas returns sum_k |V(P_k)|, maintained incrementally.
func (s *State) TotalReplicas() int { return s.totalReplicas }

// SpannedVertices returns the number of vertices replicated in >= 2
// partitions.
func (s *State) SpannedVertices() int { return s.spannedCount }

// RF returns the replication factor sum_k |V(P_k)| / |V| in O(1).
func (s *State) RF() float64 {
	if n := s.g.NumVertices(); n > 0 {
		return float64(s.totalReplicas) / float64(n)
	}
	return 0
}

// Balance returns max_k |E(P_k)| / (m/p) in O(p).
func (s *State) Balance() float64 {
	m := s.g.NumEdges()
	if m == 0 {
		return 0
	}
	return float64(s.a.MaxLoad()) / (float64(m) / float64(s.p))
}

// NumBoundary returns the current boundary-edge count.
func (s *State) NumBoundary() int { return s.numBoundary }

// IsBoundary reports whether edge e has a spanned endpoint.
func (s *State) IsBoundary(e graph.EdgeID) bool { return s.boundary[e] }

// MoveDelta returns the change in TotalReplicas that Move(e, to) would
// cause, without mutating anything. Negative is an improvement. The two
// endpoint contributions are independent because a (simple-graph) edge has
// distinct endpoints.
func (s *State) MoveDelta(e graph.EdgeID, to int) int {
	from, ok := s.a.PartitionOf(e)
	if !ok || from == to {
		return 0
	}
	ed := s.g.Edge(e)
	d := s.endpointDelta(ed.U, from, to)
	if ed.V != ed.U {
		d += s.endpointDelta(ed.V, from, to)
	}
	return d
}

func (s *State) endpointDelta(v graph.Vertex, from, to int) int {
	d := 0
	if s.Count(v, from) == 1 {
		d--
	}
	if s.Count(v, to) == 0 {
		d++
	}
	return d
}

// Move reassigns edge e to partition `to`, updating loads, replica sets,
// totals and the boundary index, and returns the realized TotalReplicas
// delta (negative = replicas removed). Moving an edge to its own partition
// is a no-op. Moves are exactly reversible: Move(e, from) undoes Move(e, to)
// and returns the negated delta.
//
//graphpart:hotpath test=TestHotPathAllocs_MoveSwap
func (s *State) Move(e graph.EdgeID, to int) int {
	from, ok := s.a.PartitionOf(e)
	if !ok {
		panic(fmt.Sprintf("partition: Move on unassigned edge %d", e))
	}
	if from == to {
		return 0
	}
	s.a.Assign(e, to)
	ed := s.g.Edge(e)
	d := s.moveEndpoint(ed.U, from, to)
	if ed.V != ed.U {
		d += s.moveEndpoint(ed.V, from, to)
	}
	s.ops++
	if invariants.Enabled && s.ops%stateCheckInterval == 0 {
		s.AssertConsistent()
	}
	return d
}

// Swap exchanges the partitions of two edges (e1 to e2's partition and vice
// versa), leaving every load unchanged, and returns the realized
// TotalReplicas delta. Swapping edges of the same partition is a no-op.
//
//graphpart:hotpath test=TestHotPathAllocs_MoveSwap
func (s *State) Swap(e1, e2 graph.EdgeID) int {
	k1, ok1 := s.a.PartitionOf(e1)
	k2, ok2 := s.a.PartitionOf(e2)
	if !ok1 || !ok2 {
		panic(fmt.Sprintf("partition: Swap on unassigned edge (%d,%d)", e1, e2))
	}
	if k1 == k2 || e1 == e2 {
		return 0
	}
	return s.Move(e1, k2) + s.Move(e2, k1)
}

// moveEndpoint applies one endpoint's count transition for a from→to edge
// move, maintaining the replica count, totals and — when the vertex's
// spanned status flips — the boundary index.
func (s *State) moveEndpoint(v graph.Vertex, from, to int) int {
	old := s.replicas[v]
	d := 0
	if s.dec(v, from) {
		d--
	}
	if s.inc(v, to) {
		d++
	}
	if d == 0 {
		return 0
	}
	now := old + int32(d)
	s.replicas[v] = now
	s.totalReplicas += d
	if (old >= 2) != (now >= 2) {
		s.flipSpanned(v, now >= 2)
	}
	return d
}

// flipSpanned reconciles the boundary index after vertex v's spanned status
// changed: newly spanned adds all incident edges; newly unspanned removes
// the incident edges whose other endpoint is not spanned either. O(deg(v)).
func (s *State) flipSpanned(v graph.Vertex, spanned bool) {
	eids := s.g.IncidentEdges(v)
	if spanned {
		s.spannedCount++
		for _, e := range eids {
			if !s.boundary[e] {
				s.boundary[e] = true
				s.numBoundary++
			}
		}
		return
	}
	s.spannedCount--
	nbrs := s.g.Neighbors(v)
	for i, e := range eids {
		if s.replicas[nbrs[i]] < 2 {
			s.boundary[e] = false
			s.numBoundary--
		}
	}
}

// inc adds one edge of v to partition k, reporting whether v newly entered k.
func (s *State) inc(v graph.Vertex, k int) bool {
	if s.counts != nil {
		i := int(v)*s.p + k
		s.counts[i]++
		if s.counts[i] == 1 {
			s.bits[v] |= uint64(1) << uint(k)
			return true
		}
		return false
	}
	row := s.sparse[v]
	i := sort.Search(len(row), func(i int) bool { return row[i].k >= int32(k) })
	if i < len(row) && row[i].k == int32(k) {
		row[i].c++
		return false
	}
	//lint:ignore GL010 amortized row growth on the sparse p>64 path only; the p<=64 hot path above is alloc-free
	row = append(row, partCount{})
	copy(row[i+1:], row[i:])
	row[i] = partCount{k: int32(k), c: 1}
	s.sparse[v] = row
	return true
}

// dec removes one edge of v from partition k, reporting whether v left k.
func (s *State) dec(v graph.Vertex, k int) bool {
	if s.counts != nil {
		i := int(v)*s.p + k
		s.counts[i]--
		if invariants.Enabled {
			invariants.Assertf(s.counts[i] >= 0,
				"vertex %d count in partition %d went negative", v, k)
		}
		if s.counts[i] == 0 {
			s.bits[v] &^= uint64(1) << uint(k)
			return true
		}
		return false
	}
	row := s.sparse[v]
	i := sort.Search(len(row), func(i int) bool { return row[i].k >= int32(k) })
	if invariants.Enabled {
		invariants.Assertf(i < len(row) && row[i].k == int32(k),
			"vertex %d has no edges in partition %d to remove", v, k)
	}
	row[i].c--
	if row[i].c > 0 {
		return false
	}
	copy(row[i:], row[i+1:])
	s.sparse[v] = row[:len(row)-1]
	return true
}

// countReplicas derives v's replica count from the representation (build
// time only; afterwards replicas[v] is maintained incrementally).
func (s *State) countReplicas(v graph.Vertex) int {
	if s.bits != nil {
		return mathbits.OnesCount64(s.bits[v])
	}
	return len(s.sparse[v])
}

// AssertConsistent cross-checks every incremental structure — per-vertex
// replica counts, totals, spanned count, load accounting and boundary
// membership — against a full recomputation from the assignment. No-op
// unless built with -tags graphpart_invariants.
func (s *State) AssertConsistent() {
	if !invariants.Enabled {
		return
	}
	assertLoadsConsistent(s.a)
	fresh := ReplicaCount(s.g, s.a)
	total, spanned := 0, 0
	for v, want := range fresh {
		invariants.Assertf(int(s.replicas[v]) == want,
			"vertex %d: incremental replica count %d, recomputed %d", v, s.replicas[v], want)
		total += want
		if want >= 2 {
			spanned++
		}
	}
	invariants.Assertf(total == s.totalReplicas,
		"total replicas: incremental %d, recomputed %d", s.totalReplicas, total)
	invariants.Assertf(spanned == s.spannedCount,
		"spanned vertices: incremental %d, recomputed %d", s.spannedCount, spanned)
	nb := 0
	for id, e := range s.g.Edges() {
		want := fresh[e.U] >= 2 || fresh[e.V] >= 2
		invariants.Assertf(want == s.boundary[id],
			"edge %d: boundary-index membership %v, recomputed %v", id, s.boundary[id], want)
		if want {
			nb++
		}
	}
	invariants.Assertf(nb == s.numBoundary,
		"boundary index counts %d edges, recomputation found %d", s.numBoundary, nb)
	for v := range fresh {
		invariants.Assertf(s.countReplicas(graph.Vertex(v)) == fresh[v],
			"vertex %d: representation replica count %d, recomputed %d",
			v, s.countReplicas(graph.Vertex(v)), fresh[v])
	}
}

// AssignLeftovers places every unassigned edge in the least-loaded partition
// (ties to the smallest partition id, matching a sequential argmin scan) and
// returns the number of edges placed. A binary min-heap over (load, id)
// makes it O(m log p); TLP's and TLP-SW's leftover sweeps share this one
// implementation.
func AssignLeftovers(a *Assignment) int {
	p := a.P()
	load := make([]int, p)
	ids := make([]int, p) // heap of partition ids, min (load, id) at ids[0]
	for k := 0; k < p; k++ {
		load[k], ids[k] = a.Load(k), k
	}
	less := func(x, y int) bool {
		if load[x] != load[y] {
			return load[x] < load[y]
		}
		return x < y
	}
	siftDown := func(i int) {
		for {
			m := i
			if l := 2*i + 1; l < p && less(ids[l], ids[m]) {
				m = l
			}
			if r := 2*i + 2; r < p && less(ids[r], ids[m]) {
				m = r
			}
			if m == i {
				return
			}
			ids[i], ids[m] = ids[m], ids[i]
			i = m
		}
	}
	for i := p/2 - 1; i >= 0; i-- {
		siftDown(i)
	}
	swept := 0
	for id := 0; id < a.NumEdges(); id++ {
		eid := graph.EdgeID(id)
		if a.IsAssigned(eid) {
			continue
		}
		k := ids[0]
		a.Assign(eid, k)
		load[k]++
		siftDown(0)
		swept++
	}
	return swept
}
