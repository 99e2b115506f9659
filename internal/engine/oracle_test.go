package engine_test

import (
	"fmt"
	"sort"
	"testing"

	graphpart "github.com/graphpart/graphpart"
	"github.com/graphpart/graphpart/internal/engine"
	"github.com/graphpart/graphpart/internal/graph"
	"github.com/graphpart/graphpart/internal/rng"
)

// oracleGraph builds a connected random graph: a random tree plus extra
// edges, the same shape the in-package tests use.
func oracleGraph(seed uint64, n, extra int) *graph.Graph {
	r := rng.New(seed)
	b := graph.NewBuilder(n)
	for i := 1; i < n; i++ {
		_ = b.AddEdge(graph.Vertex(i), graph.Vertex(r.Intn(i)))
	}
	for b.NumEdgesAdded() < n-1+extra {
		u := graph.Vertex(r.Intn(n))
		v := graph.Vertex(r.Intn(n))
		if u != v {
			_ = b.AddEdge(u, v)
		}
	}
	return b.Build()
}

// oraclePartitioners is every registered partitioner (seed 42) plus
// "flatkl": FlatKL from its public constructor with one FM pass and one
// initial trial. The registry holds FlatKL once, under "kl", at its
// defaults; the lightly refined variant gives the runtime a second,
// different Kernighan-Lin layout to reproduce.
func oraclePartitioners() map[string]graphpart.Partitioner {
	parts := graphpart.AllPartitioners(42)
	parts["flatkl"] = graphpart.NewFlatKL(graphpart.METISConfig{Seed: 42, FMPasses: 1, InitialTrials: 1})
	return parts
}

// TestOracleBitIdentical is the acceptance oracle of the share-nothing
// refactor: for every partitioner in oraclePartitioners, at p in
// {2, 8, 32}, for PageRank, connected components and SSSP, the
// message-passing runtime must return values bit-for-bit equal to the plain
// sequential reference loop, with the same superstep count. SSSP's frontier starts at one vertex and
// moves, so most replicas feed gather a message cached supersteps earlier.
func TestOracleBitIdentical(t *testing.T) {
	g := oracleGraph(7, 600, 2400)
	n := g.NumVertices()
	programs := []struct {
		name string
		make func() engine.Program
		max  int
	}{
		{"pagerank", func() engine.Program { return engine.NewPageRank(n, 0.85, 1e-8) }, 30},
		{"components", func() engine.Program { return &engine.Components{} }, 50},
		{"sssp", func() engine.Program { return &engine.SSSP{Source: 0} }, 50},
	}
	parts := oraclePartitioners()
	names := make([]string, 0, len(parts))
	for name := range parts {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, pr := range programs {
		want, wantSteps, err := engine.RunSequential(g, pr.make(), pr.max)
		if err != nil {
			t.Fatalf("sequential %s: %v", pr.name, err)
		}
		for _, name := range names {
			for _, p := range []int{2, 8, 32} {
				t.Run(fmt.Sprintf("%s/%s/p%d", pr.name, name, p), func(t *testing.T) {
					a, err := parts[name].Partition(g, p)
					if err != nil {
						t.Fatalf("partition: %v", err)
					}
					e, err := engine.New(g, a)
					if err != nil {
						t.Fatalf("engine.New: %v", err)
					}
					got, stats, err := e.Run(pr.make(), pr.max)
					if err != nil {
						t.Fatalf("Run: %v", err)
					}
					if stats.Supersteps != wantSteps {
						t.Fatalf("supersteps = %d, sequential ran %d", stats.Supersteps, wantSteps)
					}
					for v := range want {
						if got[v] != want[v] {
							t.Fatalf("vertex %d: runtime %v != sequential %v (not bit-identical)",
								v, got[v], want[v])
						}
					}
				})
			}
		}
	}
}

// TestOracleRepeatRuns checks an Engine's reusable buffers are reset
// correctly: back-to-back runs of different programs on one Engine match
// the oracle each time.
func TestOracleRepeatRuns(t *testing.T) {
	g := oracleGraph(11, 300, 900)
	a, err := graphpart.AllPartitioners(7)["tlp"].Partition(g, 8)
	if err != nil {
		t.Fatalf("partition: %v", err)
	}
	e, err := engine.New(g, a)
	if err != nil {
		t.Fatalf("engine.New: %v", err)
	}
	for round := 0; round < 2; round++ {
		for _, pr := range []engine.Program{engine.NewPageRank(g.NumVertices(), 0.85, 1e-8), &engine.Components{}} {
			want, wantSteps, err := engine.RunSequential(g, pr, 40)
			if err != nil {
				t.Fatalf("sequential: %v", err)
			}
			got, stats, err := e.Run(pr, 40)
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if stats.Supersteps != wantSteps {
				t.Fatalf("round %d %s: supersteps = %d, want %d", round, pr.Name(), stats.Supersteps, wantSteps)
			}
			for v := range want {
				if got[v] != want[v] {
					t.Fatalf("round %d %s vertex %d: %v != %v", round, pr.Name(), v, got[v], want[v])
				}
			}
		}
	}
}
