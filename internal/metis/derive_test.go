package metis

import (
	"testing"

	"github.com/graphpart/graphpart/internal/gen"
	"github.com/graphpart/graphpart/internal/graph"
	"github.com/graphpart/graphpart/internal/partition"
	"github.com/graphpart/graphpart/internal/rng"
	"github.com/graphpart/graphpart/internal/source"
)

func TestDeriveBalancedEnforcesCapacity(t *testing.T) {
	// Heavy skew: put almost everything in one vertex part.
	g := gen.ChungLu(gen.ChungLuConfig{Vertices: 500, TargetEdges: 3000, Exponent: 2.0}, rng.New(1))
	labels := make([]int32, g.NumVertices())
	for v := range labels {
		if v%10 == 0 {
			labels[v] = 1
		}
	}
	p := 4
	a, err := DeriveBalanced(g, labels, p)
	if err != nil {
		t.Fatal(err)
	}
	if err := partition.Validate(g, a, partition.ValidateOptions{}); err != nil {
		t.Fatalf("DeriveBalanced violated strict capacity: %v", err)
	}
}

func TestDeriveBalancedNoopWhenBalanced(t *testing.T) {
	g := graph.MustFromEdges(4, []graph.Edge{{U: 0, V: 1}, {U: 2, V: 3}})
	labels := []int32{0, 0, 1, 1}
	a, err := DeriveBalanced(g, labels, 2)
	if err != nil {
		t.Fatal(err)
	}
	if a.Load(0) != 1 || a.Load(1) != 1 {
		t.Fatalf("loads %v", a.Loads())
	}
}

func TestDeriveBalancedKeepsRFClose(t *testing.T) {
	// Rebalancing should cost only a modest RF increase vs the greedy
	// derivation on a realistic graph.
	g := gen.Collaboration(gen.CollabConfig{Authors: 1500, TargetEdges: 15000, MeanAuthorsPerPaper: 4.5, ProlificExponent: 0.75}, rng.New(2))
	m := New(Config{Seed: 3})
	labels, err := m.VertexPartition(g, 8)
	if err != nil {
		t.Fatal(err)
	}
	aGreedy, err := DeriveEdgePartition(source.FromGraph(g, source.OrderNatural, 0), labels, 8)
	if err != nil {
		t.Fatal(err)
	}
	aBal, err := DeriveBalanced(g, labels, 8)
	if err != nil {
		t.Fatal(err)
	}
	rfG, err := partition.ReplicationFactor(g, aGreedy)
	if err != nil {
		t.Fatal(err)
	}
	rfB, err := partition.ReplicationFactor(g, aBal)
	if err != nil {
		t.Fatal(err)
	}
	if err := partition.Validate(g, aBal, partition.ValidateOptions{}); err != nil {
		t.Fatalf("balanced derivation invalid: %v", err)
	}
	if rfB > 1.5*rfG {
		t.Fatalf("balanced derivation RF %.3f blew up vs greedy %.3f", rfB, rfG)
	}
}

func TestFlatKLValid(t *testing.T) {
	g := randomGraph(51, 300, 900)
	kl := NewFlatKL(Config{Seed: 52})
	if kl.Name() != "KL" {
		t.Fatal("wrong name")
	}
	a, err := kl.Partition(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := partition.Validate(g, a, partition.ValidateOptions{CapacitySlack: 3}); err != nil {
		t.Fatalf("flat KL invalid: %v", err)
	}
}

// TestMultilevelBeatsFlatOnCommunities: the DESIGN.md §6 ablation —
// multilevel coarsening should find planted structure at least as well as
// flat KL from a random initial bisection.
func TestMultilevelBeatsFlatOnCommunities(t *testing.T) {
	g := gen.PlantedCommunities(gen.CommunityConfig{
		Vertices: 600, Communities: 8, TargetEdges: 6000, IntraFraction: 0.85,
	}, rng.New(53))
	p := 8
	aML, err := New(Config{Seed: 54}).Partition(g, p)
	if err != nil {
		t.Fatal(err)
	}
	aKL, err := NewFlatKL(Config{Seed: 54}).Partition(g, p)
	if err != nil {
		t.Fatal(err)
	}
	rfML, err := partition.ReplicationFactor(g, aML)
	if err != nil {
		t.Fatal(err)
	}
	rfKL, err := partition.ReplicationFactor(g, aKL)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("multilevel RF=%.3f, flat KL RF=%.3f", rfML, rfKL)
	if rfML > 1.25*rfKL {
		t.Fatalf("multilevel much worse than flat: %.3f vs %.3f", rfML, rfKL)
	}
}
