package refine

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/graphpart/graphpart/internal/core"
	"github.com/graphpart/graphpart/internal/gen"
	"github.com/graphpart/graphpart/internal/graph"
	"github.com/graphpart/graphpart/internal/partition"
	"github.com/graphpart/graphpart/internal/rng"
	"github.com/graphpart/graphpart/internal/streaming"
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

func TestRunValidation(t *testing.T) {
	g := randomGraph(1, 20, 20)
	a := partition.MustNew(g.NumEdges(), 2)
	if _, err := Run(nil, a, Options{}); err == nil {
		t.Fatal("nil graph accepted")
	}
	if _, err := Run(g, a, Options{}); err == nil {
		t.Fatal("incomplete assignment accepted")
	}
	for id := 0; id < g.NumEdges(); id++ {
		a.Assign(graph.EdgeID(id), id%2)
	}
	// Zero keeps meaning "default"; negative or non-finite values used to
	// fall back to the defaults (or, for MaxSeconds, disable the budget)
	// without a word.
	for _, bad := range []Options{
		{Capacity: -1}, {MaxPasses: -1}, {MinGain: -1},
		{MaxSeconds: -1}, {MaxSeconds: math.NaN()}, {MaxSeconds: math.Inf(1)}, {MaxSeconds: math.Inf(-1)},
	} {
		if _, err := Run(g, a.Clone(), bad); err == nil {
			t.Errorf("options %+v accepted", bad)
		}
	}
	if _, err := Run(g, a, Options{MaxSeconds: 10}); err != nil {
		t.Fatalf("valid options rejected: %v", err)
	}
}

func TestRunObviousWin(t *testing.T) {
	// Path a-b-c with edges split so b is replicated, plenty of capacity:
	// moving one edge consolidates b.
	g := graph.MustFromEdges(3, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}})
	a := partition.MustNew(2, 2)
	a.Assign(0, 0)
	a.Assign(1, 1)
	stats, err := Run(g, a, Options{Capacity: 2})
	if err != nil {
		t.Fatal(err)
	}
	after, err := partition.ReplicationFactor(g, a)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Moves == 0 || stats.ReplicasRemoved == 0 {
		t.Fatalf("no moves recorded: %+v", stats)
	}
	if after != 1.0 {
		t.Fatalf("path should consolidate to RF 1, got %.3f", after)
	}
	if stats.RFAfter != after || stats.RFBefore <= stats.RFAfter {
		t.Fatalf("stats RF bookkeeping wrong: %+v", stats)
	}
	if !stats.Converged {
		t.Fatalf("tiny instance did not converge: %+v", stats)
	}
}

func TestRunRespectsCapacity(t *testing.T) {
	// Same path but strict capacity 1 per partition: no move possible, and
	// the only swap (the two edges) has no gain.
	g := graph.MustFromEdges(3, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}})
	a := partition.MustNew(2, 2)
	a.Assign(0, 0)
	a.Assign(1, 1)
	stats, err := Run(g, a, Options{Capacity: 1})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Moves != 0 {
		t.Fatalf("capacity-violating move executed: %+v", stats)
	}
	if err := partition.Validate(g, a, partition.ValidateOptions{Capacity: 1}); err != nil {
		t.Fatalf("assignment corrupted: %v", err)
	}
}

func TestRunSwapAtFullCapacity(t *testing.T) {
	// Two disjoint triangles, both partitions exactly at capacity C=3 with
	// one edge of each triangle stranded in the other partition. No vacate
	// move fits the capacity; only the load-preserving swap can reach RF 1.
	g := graph.MustFromEdges(6, []graph.Edge{
		{U: 0, V: 1}, {U: 0, V: 2}, {U: 1, V: 2},
		{U: 3, V: 4}, {U: 3, V: 5}, {U: 4, V: 5},
	})
	a := partition.MustNew(6, 2)
	for id, k := range []int{0, 0, 1, 0, 1, 1} { // {1,2} and {3,4} stranded
		a.Assign(graph.EdgeID(id), k)
	}
	stats, err := Run(g, a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Swaps == 0 {
		t.Fatalf("no swap executed: %+v", stats)
	}
	rf, err := partition.ReplicationFactor(g, a)
	if err != nil {
		t.Fatal(err)
	}
	if rf != 1.0 {
		t.Fatalf("swap should reach RF 1, got %.3f (stats %+v)", rf, stats)
	}
	if a.Load(0) != 3 || a.Load(1) != 3 {
		t.Fatalf("swap changed loads: %v", a.Loads())
	}
}

func TestRunImprovesRandomPartitioning(t *testing.T) {
	g := gen.PlantedCommunities(gen.CommunityConfig{
		Vertices: 400, Communities: 8, TargetEdges: 4000, IntraFraction: 0.8,
	}, rng.New(2))
	p := 4
	a, err := streaming.NewRandom(3).Partition(g, p)
	if err != nil {
		t.Fatal(err)
	}
	before, err := partition.ReplicationFactor(g, a)
	if err != nil {
		t.Fatal(err)
	}
	// Random hashing is only balanced in expectation; allow slack.
	capC := int(1.1 * float64(partition.Capacity(g.NumEdges(), p)))
	stats, err := Run(g, a, Options{Capacity: capC, MaxPasses: 6})
	if err != nil {
		t.Fatal(err)
	}
	after, err := partition.ReplicationFactor(g, a)
	if err != nil {
		t.Fatal(err)
	}
	if after >= before {
		t.Fatalf("refinement did not improve random partitioning: %.3f -> %.3f", before, after)
	}
	if stats.RFBefore != before || stats.RFAfter != after {
		t.Fatalf("stats RF %v -> %v, recomputed %v -> %v", stats.RFBefore, stats.RFAfter, before, after)
	}
	if err := partition.Validate(g, a, partition.ValidateOptions{Capacity: capC}); err != nil {
		t.Fatalf("refined assignment invalid: %v", err)
	}
	t.Logf("random RF %.3f -> %.3f (%d moves, %d swaps, %d replicas removed)",
		before, after, stats.Moves, stats.Swaps, stats.ReplicasRemoved)
}

func TestRunOnTLPIsNearNoop(t *testing.T) {
	// TLP output is already locally consolidated; refinement should find
	// little and never hurt.
	g := randomGraph(4, 300, 900)
	a, err := core.MustNew(core.Options{Seed: 5}).Partition(g, 5)
	if err != nil {
		t.Fatal(err)
	}
	before, err := partition.ReplicationFactor(g, a)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(g, a, Options{}); err != nil {
		t.Fatal(err)
	}
	after, err := partition.ReplicationFactor(g, a)
	if err != nil {
		t.Fatal(err)
	}
	if after > before+1e-12 {
		t.Fatalf("refinement worsened RF: %.4f -> %.4f", before, after)
	}
}

// Property: Run never increases RF, never breaks completeness, never pushes
// a load above max(previous load, capacity), and its incremental Stats RF
// values agree with partition.Compute before and after.
func TestRunSafetyProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 10 + r.Intn(80)
		g := randomGraph(seed, n, r.Intn(3*n))
		p := 2 + r.Intn(5)
		a := partition.MustNew(g.NumEdges(), p)
		for id := 0; id < g.NumEdges(); id++ {
			a.Assign(graph.EdgeID(id), r.Intn(p))
		}
		mBefore, err := partition.Compute(g, a)
		if err != nil {
			return false
		}
		loadsBefore := a.Loads()
		capC := partition.Capacity(g.NumEdges(), p)
		stats, err := Run(g, a, Options{Capacity: capC})
		if err != nil {
			return false
		}
		mAfter, err := partition.Compute(g, a)
		if err != nil {
			return false
		}
		if mAfter.ReplicationFactor > mBefore.ReplicationFactor+1e-12 {
			return false
		}
		// The incrementally tracked stats must match the full recomputation.
		if stats.RFBefore != mBefore.ReplicationFactor || stats.RFAfter != mAfter.ReplicationFactor {
			return false
		}
		if stats.BalanceBefore != mBefore.Balance || stats.BalanceAfter != mAfter.Balance {
			return false
		}
		// Random inputs can start over capacity; refinement must never push
		// any load above what it already was or above the capacity.
		for k := 0; k < p; k++ {
			limit := capC
			if loadsBefore[k] > limit {
				limit = loadsBefore[k]
			}
			if a.Load(k) > limit {
				return false
			}
		}
		return partition.Validate(g, a, partition.ValidateOptions{SkipCapacity: true}) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkRefine(b *testing.B) {
	g := gen.ChungLu(gen.ChungLuConfig{Vertices: 5000, TargetEdges: 25000, Exponent: 2.1}, rng.New(6))
	base, err := streaming.NewRandom(7).Partition(g, 8)
	if err != nil {
		b.Fatal(err)
	}
	capC := int(1.1 * float64(partition.Capacity(g.NumEdges(), 8)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := base.Clone()
		if _, err := Run(g, a, Options{Capacity: capC}); err != nil {
			b.Fatal(err)
		}
	}
}
