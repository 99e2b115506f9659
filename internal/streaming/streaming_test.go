package streaming

import (
	"testing"
	"testing/quick"

	"github.com/graphpart/graphpart/internal/gen"
	"github.com/graphpart/graphpart/internal/graph"
	"github.com/graphpart/graphpart/internal/partition"
	"github.com/graphpart/graphpart/internal/rng"
)

func randomGraph(seed uint64, n, extra int) *graph.Graph {
	r := rng.New(seed)
	b := graph.NewBuilder(n)
	for i := 1; i < n; i++ {
		_ = b.AddEdge(graph.Vertex(i), graph.Vertex(r.Intn(i)))
	}
	for i := 0; i < extra; i++ {
		_ = b.AddEdge(graph.Vertex(r.Intn(n)), graph.Vertex(r.Intn(n)))
	}
	return b.Build()
}

func allPartitioners(seed uint64) []partition.Partitioner {
	return []partition.Partitioner{
		NewRandom(seed),
		NewDBH(seed),
		NewGreedy(seed, OrderShuffled),
		NewHDRF(seed, OrderShuffled),
		NewLDG(seed),
		NewFENNEL(seed),
	}
}

func TestAllCompleteAndInRange(t *testing.T) {
	g := randomGraph(1, 300, 900)
	for _, pt := range allPartitioners(7) {
		for _, p := range []int{1, 2, 5, 10} {
			a, err := pt.Partition(g, p)
			if err != nil {
				t.Fatalf("%s p=%d: %v", pt.Name(), p, err)
			}
			if err := partition.Validate(g, a, partition.ValidateOptions{AllowUnassigned: false, CapacitySlack: 100}); err != nil {
				t.Fatalf("%s p=%d incomplete: %v", pt.Name(), p, err)
			}
			rf, err := partition.ReplicationFactor(g, a)
			if err != nil {
				t.Fatal(err)
			}
			if rf < 1 || rf > float64(p) {
				t.Fatalf("%s p=%d RF=%v out of range", pt.Name(), p, rf)
			}
		}
	}
}

func TestAllDeterministic(t *testing.T) {
	g := randomGraph(2, 200, 600)
	for _, makePt := range []func() partition.Partitioner{
		func() partition.Partitioner { return NewRandom(3) },
		func() partition.Partitioner { return NewDBH(3) },
		func() partition.Partitioner { return NewGreedy(3, OrderShuffled) },
		func() partition.Partitioner { return NewHDRF(3, OrderShuffled) },
		func() partition.Partitioner { return NewLDG(3) },
		func() partition.Partitioner { return NewFENNEL(3) },
	} {
		a1, err := makePt().Partition(g, 4)
		if err != nil {
			t.Fatal(err)
		}
		a2, err := makePt().Partition(g, 4)
		if err != nil {
			t.Fatal(err)
		}
		for id := 0; id < g.NumEdges(); id++ {
			k1, _ := a1.PartitionOf(graph.EdgeID(id))
			k2, _ := a2.PartitionOf(graph.EdgeID(id))
			if k1 != k2 {
				t.Fatalf("%s not deterministic", makePt().Name())
			}
		}
	}
}

func TestRejectBadInput(t *testing.T) {
	g := randomGraph(3, 10, 10)
	for _, pt := range allPartitioners(1) {
		if _, err := pt.Partition(nil, 2); err == nil {
			t.Fatalf("%s accepted nil graph", pt.Name())
		}
		if _, err := pt.Partition(g, 0); err == nil {
			t.Fatalf("%s accepted p=0", pt.Name())
		}
	}
}

func TestRandomBalance(t *testing.T) {
	g := randomGraph(4, 500, 4500)
	a, err := NewRandom(5).Partition(g, 10)
	if err != nil {
		t.Fatal(err)
	}
	// Hashing balances in expectation: every load within 30% of average.
	avg := float64(g.NumEdges()) / 10
	for k := 0; k < 10; k++ {
		if f := float64(a.Load(k)); f < 0.7*avg || f > 1.3*avg {
			t.Fatalf("random load %v far from average %v", f, avg)
		}
	}
}

func TestDBHHashesLowDegreeEndpoint(t *testing.T) {
	// Star graph: hub 0 with 20 leaves. Every edge's low-degree endpoint
	// is the leaf, so edges spread across partitions and the hub gets
	// replicated — leaves must never be replicated.
	b := graph.NewBuilder(21)
	for i := 1; i <= 20; i++ {
		_ = b.AddEdge(0, graph.Vertex(i))
	}
	g := b.Build()
	a, err := NewDBH(6).Partition(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	counts := partition.ReplicaCount(g, a)
	for v := 1; v <= 20; v++ {
		if counts[v] != 1 {
			t.Fatalf("leaf %d replicated %d times", v, counts[v])
		}
	}
	if counts[0] < 2 {
		t.Fatalf("hub replicated only %d times; expected spread", counts[0])
	}
}

func TestGreedyClustersEdges(t *testing.T) {
	// Greedy should beat Random on RF for a community graph.
	g := gen.PlantedCommunities(gen.CommunityConfig{
		Vertices: 400, Communities: 8, TargetEdges: 4000, IntraFraction: 0.85,
	}, rng.New(7))
	p := 8
	ag, err := NewGreedy(8, OrderShuffled).Partition(g, p)
	if err != nil {
		t.Fatal(err)
	}
	ar, err := NewRandom(8).Partition(g, p)
	if err != nil {
		t.Fatal(err)
	}
	rfG, err := partition.ReplicationFactor(g, ag)
	if err != nil {
		t.Fatal(err)
	}
	rfR, err := partition.ReplicationFactor(g, ar)
	if err != nil {
		t.Fatal(err)
	}
	if rfG >= rfR {
		t.Fatalf("Greedy RF %.3f not below Random %.3f", rfG, rfR)
	}
}

func TestHDRFBalanceBetterThanGreedy(t *testing.T) {
	g := gen.ChungLu(gen.ChungLuConfig{Vertices: 2000, TargetEdges: 10000, Exponent: 2.0}, rng.New(9))
	p := 10
	ah, err := NewHDRF(10, OrderShuffled).Partition(g, p)
	if err != nil {
		t.Fatal(err)
	}
	mh, err := partition.Compute(g, ah)
	if err != nil {
		t.Fatal(err)
	}
	// HDRF's explicit balance term should keep loads tight.
	if mh.Balance > 1.3 {
		t.Fatalf("HDRF balance %.3f too loose", mh.Balance)
	}
}

func TestLDGVertexBalance(t *testing.T) {
	g := randomGraph(11, 600, 1800)
	labels, err := NewLDG(12).VertexPartition(g, 6)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, 6)
	for _, l := range labels {
		if l < 0 || l >= 6 {
			t.Fatalf("label %d out of range", l)
		}
		counts[l]++
	}
	capV := 600/6 + 1
	for k, c := range counts {
		if c > capV+1 {
			t.Fatalf("LDG part %d holds %d vertices, cap %d", k, c, capV)
		}
	}
}

func TestLDGPrefersNeighbours(t *testing.T) {
	// Two cliques joined by one edge; LDG's rule visiting the vertices in
	// id order should keep each clique together (first clique fills
	// partition with its neighbours).
	b := graph.NewBuilder(12)
	for i := 0; i < 6; i++ {
		for j := i + 1; j < 6; j++ {
			_ = b.AddEdge(graph.Vertex(i), graph.Vertex(j))
			_ = b.AddEdge(graph.Vertex(6+i), graph.Vertex(6+j))
		}
	}
	_ = b.AddEdge(5, 11)
	g := b.Build()
	order := make([]graph.Vertex, g.NumVertices())
	for i := range order {
		order[i] = graph.Vertex(i)
	}
	labels := placeVertices(g, 2, order, ldgChooser(g.NumVertices(), 2))
	for i := 1; i < 6; i++ {
		if labels[i] != labels[0] {
			t.Fatalf("clique 1 split: %v", labels)
		}
		if labels[6+i] != labels[6] {
			t.Fatalf("clique 2 split: %v", labels)
		}
	}
}

func TestFENNELVertexPartition(t *testing.T) {
	g := randomGraph(14, 500, 1500)
	labels, err := NewFENNEL(15).VertexPartition(g, 5)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, 5)
	for _, l := range labels {
		counts[l]++
	}
	for k, c := range counts {
		if c == 0 {
			t.Fatalf("FENNEL left part %d empty", k)
		}
		if c > 2*(500/5) {
			t.Fatalf("FENNEL part %d has %d vertices", k, c)
		}
	}
}

func TestReplicaSetsSmallAndLarge(t *testing.T) {
	for _, p := range []int{4, 100} {
		rs := newReplicaSets(10, p)
		if rs.count(3) != 0 {
			t.Fatal("fresh set non-empty")
		}
		rs.add(3, 0)
		rs.add(3, p-1)
		rs.add(3, 0) // idempotent
		if !rs.has(3, 0) || !rs.has(3, p-1) || rs.has(3, 1) {
			t.Fatalf("p=%d membership wrong", p)
		}
		if rs.count(3) != 2 {
			t.Fatalf("p=%d count=%d, want 2", p, rs.count(3))
		}
	}
}

// Property: all streaming partitioners produce complete assignments for
// arbitrary graphs.
func TestStreamingValidProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 5 + r.Intn(80)
		g := randomGraph(seed, n, r.Intn(3*n))
		p := 1 + r.Intn(8)
		for _, pt := range allPartitioners(seed) {
			a, err := pt.Partition(g, p)
			if err != nil {
				return false
			}
			if err := partition.Validate(g, a, partition.ValidateOptions{CapacitySlack: 1000}); err != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkDBH(b *testing.B) {
	g := gen.ChungLu(gen.ChungLuConfig{Vertices: 10000, TargetEdges: 50000, Exponent: 2.1}, rng.New(18))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewDBH(uint64(i)).Partition(g, 10); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGreedy(b *testing.B) {
	g := gen.ChungLu(gen.ChungLuConfig{Vertices: 10000, TargetEdges: 50000, Exponent: 2.1}, rng.New(19))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewGreedy(uint64(i), OrderShuffled).Partition(g, 10); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLDG(b *testing.B) {
	g := gen.ChungLu(gen.ChungLuConfig{Vertices: 10000, TargetEdges: 50000, Exponent: 2.1}, rng.New(20))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewLDG(uint64(i)).Partition(g, 10); err != nil {
			b.Fatal(err)
		}
	}
}
