package partition

import (
	"testing"
	"testing/quick"

	"github.com/graphpart/graphpart/internal/graph"
	"github.com/graphpart/graphpart/internal/rng"
)

// randomTestGraph builds a connected random graph (spanning path + random
// extra edges) with a complete random assignment over p partitions.
func randomTestGraph(r *rng.RNG, n, extra, p int) (*graph.Graph, *Assignment) {
	b := graph.NewBuilder(n)
	for i := 0; i < n-1; i++ {
		_ = b.AddEdge(graph.Vertex(i), graph.Vertex(i+1))
	}
	for i := 0; i < extra; i++ {
		_ = b.AddEdge(graph.Vertex(r.Intn(n)), graph.Vertex(r.Intn(n)))
	}
	g := b.Build()
	a := MustNew(g.NumEdges(), p)
	for id := 0; id < g.NumEdges(); id++ {
		a.Assign(graph.EdgeID(id), r.Intn(p))
	}
	return g, a
}

// checkStateMatchesCompute compares every incremental quantity of s against
// Compute and a freshly built State.
func checkStateMatchesCompute(t *testing.T, g *graph.Graph, s *State) {
	t.Helper()
	m, err := Compute(g, s.Assignment())
	if err != nil {
		t.Fatalf("Compute: %v", err)
	}
	if s.TotalReplicas() != m.TotalReplicas {
		t.Fatalf("TotalReplicas: state %d, Compute %d", s.TotalReplicas(), m.TotalReplicas)
	}
	if s.SpannedVertices() != m.SpannedVertices {
		t.Fatalf("SpannedVertices: state %d, Compute %d", s.SpannedVertices(), m.SpannedVertices)
	}
	if s.RF() != m.ReplicationFactor {
		t.Fatalf("RF: state %v, Compute %v", s.RF(), m.ReplicationFactor)
	}
	if s.Balance() != m.Balance {
		t.Fatalf("Balance: state %v, Compute %v", s.Balance(), m.Balance)
	}
	counts := ReplicaCount(g, s.Assignment())
	for v, want := range counts {
		if got := s.Replicas(graph.Vertex(v)); got != want {
			t.Fatalf("vertex %d replicas: state %d, recomputed %d", v, got, want)
		}
	}
	// Boundary index: membership must equal "some endpoint spanned".
	nb := 0
	for id, e := range g.Edges() {
		want := counts[e.U] >= 2 || counts[e.V] >= 2
		if got := s.IsBoundary(graph.EdgeID(id)); got != want {
			t.Fatalf("edge %d boundary: state %v, recomputed %v", id, got, want)
		}
		if want {
			nb++
		}
	}
	if s.NumBoundary() != nb {
		t.Fatalf("NumBoundary: state %d, recomputed %d", s.NumBoundary(), nb)
	}
}

func TestNewStateMatchesCompute(t *testing.T) {
	for _, p := range []int{1, 2, 8, 64, 70, 100} {
		r := rng.New(uint64(7 + p))
		g, a := randomTestGraph(r, 50, 150, p)
		s, err := NewState(g, a)
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		checkStateMatchesCompute(t, g, s)
	}
}

func TestNewStateRejectsIncomplete(t *testing.T) {
	g := fig1Graph()
	a := MustNew(g.NumEdges(), 2)
	a.Assign(0, 0)
	if _, err := NewState(g, a); err == nil {
		t.Fatal("NewState accepted an incomplete assignment")
	}
	if _, err := NewState(g, MustNew(3, 2)); err == nil {
		t.Fatal("NewState accepted a size-mismatched assignment")
	}
	if _, err := NewState(nil, a); err == nil {
		t.Fatal("NewState accepted a nil graph")
	}
}

// Property: after any sequence of random Moves and Swaps, in both the dense
// (p<=64) and sparse (p>64) representations, every incremental metric equals
// a full recomputation, and MoveDelta predicts the realized Move delta.
func TestStateIncrementalMatchesRecompute(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		p := 2 + r.Intn(8)
		if r.Intn(4) == 0 {
			p = 65 + r.Intn(8) // exercise the sparse representation
		}
		g, a := randomTestGraph(r, 8+r.Intn(30), 40, p)
		s, err := NewState(g, a)
		if err != nil {
			return false
		}
		for i := 0; i < 200; i++ {
			e := graph.EdgeID(r.Intn(g.NumEdges()))
			if r.Intn(3) == 0 {
				e2 := graph.EdgeID(r.Intn(g.NumEdges()))
				before := s.TotalReplicas()
				d := s.Swap(e, e2)
				if s.TotalReplicas()-before != d {
					return false
				}
				continue
			}
			to := r.Intn(p)
			want := s.MoveDelta(e, to)
			before := s.TotalReplicas()
			if got := s.Move(e, to); got != want || s.TotalReplicas()-before != got {
				return false
			}
		}
		checkStateMatchesCompute(t, g, s)
		s.AssertConsistent()
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestStateMoveIsReversible(t *testing.T) {
	r := rng.New(99)
	g, a := randomTestGraph(r, 40, 100, 6)
	s, err := NewState(g, a)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		e := graph.EdgeID(r.Intn(g.NumEdges()))
		from, _ := s.Assignment().PartitionOf(e)
		to := r.Intn(6)
		total := s.TotalReplicas()
		d := s.Move(e, to)
		back := s.Move(e, from)
		if d+back != 0 {
			t.Fatalf("move %d->%d delta %d, revert delta %d", from, to, d, back)
		}
		if s.TotalReplicas() != total {
			t.Fatalf("revert did not restore TotalReplicas")
		}
	}
	checkStateMatchesCompute(t, g, s)
}

func TestStateSwapPreservesLoads(t *testing.T) {
	r := rng.New(5)
	g, a := randomTestGraph(r, 30, 80, 4)
	s, err := NewState(g, a)
	if err != nil {
		t.Fatal(err)
	}
	loads := s.Assignment().Loads()
	for i := 0; i < 60; i++ {
		s.Swap(graph.EdgeID(r.Intn(g.NumEdges())), graph.EdgeID(r.Intn(g.NumEdges())))
	}
	got := s.Assignment().Loads()
	for k := range loads {
		if loads[k] != got[k] {
			t.Fatalf("swap changed loads: %v -> %v", loads, got)
		}
	}
}

func TestStatePartitionsAndCounts(t *testing.T) {
	g := fig1Graph()
	for _, p := range []int{3, 70} {
		a := MustNew(g.NumEdges(), p)
		// Storage order is canonical (U,V)-sorted: ids 0,1,4 are the left
		// triangle (-> 0), ids 2,3 are a-d/a-e (-> 1), ids 5,6,7 the right
		// triangle (-> 2).
		for id, k := range []int{0, 0, 1, 1, 0, 2, 2, 2} {
			a.Assign(graph.EdgeID(id), k)
		}
		s, err := NewState(g, a)
		if err != nil {
			t.Fatal(err)
		}
		if got := s.Partitions(0, nil); len(got) != 2 || got[0] != 0 || got[1] != 1 {
			t.Fatalf("p=%d: vertex a partitions = %v", p, got)
		}
		if s.Count(0, 0) != 2 || s.Count(0, 1) != 2 || s.Count(0, 2) != 0 {
			t.Fatalf("p=%d: vertex a counts = %d,%d,%d", p, s.Count(0, 0), s.Count(0, 1), s.Count(0, 2))
		}
		if s.Count(3, 1) == 0 || s.Count(3, 2) == 0 || s.Count(3, 0) > 0 {
			t.Fatalf("p=%d: vertex d membership wrong", p)
		}
		if s.Replicas(5) != 1 {
			t.Fatalf("p=%d: vertex f replicas = %d", p, s.Replicas(5))
		}
	}
}

func TestAssignLeftoversMatchesArgminScan(t *testing.T) {
	r := rng.New(31)
	g, _ := randomTestGraph(r, 40, 120, 1)
	p := 5
	a := MustNew(g.NumEdges(), p)
	ref := MustNew(g.NumEdges(), p)
	// Pre-assign a random half to both.
	for id := 0; id < g.NumEdges(); id++ {
		if r.Intn(2) == 0 {
			k := r.Intn(p)
			a.Assign(graph.EdgeID(id), k)
			ref.Assign(graph.EdgeID(id), k)
		}
	}
	// Reference: sequential argmin scan with smallest-id ties.
	want := 0
	for id := 0; id < g.NumEdges(); id++ {
		eid := graph.EdgeID(id)
		if ref.IsAssigned(eid) {
			continue
		}
		best := 0
		for k := 1; k < p; k++ {
			if ref.Load(k) < ref.Load(best) {
				best = k
			}
		}
		ref.Assign(eid, best)
		want++
	}
	if got := AssignLeftovers(a); got != want {
		t.Fatalf("AssignLeftovers placed %d edges, want %d", got, want)
	}
	for id := 0; id < g.NumEdges(); id++ {
		ka, _ := a.PartitionOf(graph.EdgeID(id))
		kr, _ := ref.PartitionOf(graph.EdgeID(id))
		if ka != kr {
			t.Fatalf("edge %d: heap sweep chose %d, argmin scan chose %d", id, ka, kr)
		}
	}
}
