package wire_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	graphpart "github.com/graphpart/graphpart"
	"github.com/graphpart/graphpart/internal/engine"
	"github.com/graphpart/graphpart/internal/graph"
	"github.com/graphpart/graphpart/internal/partition"
	"github.com/graphpart/graphpart/internal/wire"
)

// TestMain lets this test binary double as the cluster worker: RunCluster
// re-executes os.Executable() (this binary) once per machine, and
// MaybeWorker diverts those children into the worker protocol before any
// test runs.
func TestMain(m *testing.M) {
	if wire.MaybeWorker() {
		return
	}
	os.Exit(m.Run())
}

// TestClusterOracleBitIdentical runs PageRank and connected components with
// one OS process per machine at p in {2, 8} and requires bit-identical
// values and the same superstep count as the sequential loop — process
// boundaries and real sockets change nothing observable about the
// computation.
func TestClusterOracleBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	g := oracleGraph(19, 300, 900)
	n := g.NumVertices()
	programs := []struct {
		name string
		make func() engine.Program
		max  int
	}{
		{"pagerank", func() engine.Program { return engine.NewPageRank(n, 0.85, 1e-8) }, 25},
		{"components", func() engine.Program { return &engine.Components{} }, 40},
	}
	parts := graphpart.AllPartitioners(42)
	for _, pr := range programs {
		want, wantSteps, err := engine.RunSequential(g, pr.make(), pr.max)
		if err != nil {
			t.Fatalf("sequential %s: %v", pr.name, err)
		}
		for _, p := range []int{2, 8} {
			t.Run(fmt.Sprintf("%s/p%d", pr.name, p), func(t *testing.T) {
				a, err := parts["tlp"].Partition(g, p)
				if err != nil {
					t.Fatalf("partition: %v", err)
				}
				got, stats, err := wire.RunCluster(g, a, pr.make(), pr.max, nil)
				if err != nil {
					t.Fatalf("RunCluster: %v", err)
				}
				if stats.Supersteps != wantSteps {
					t.Fatalf("supersteps = %d, sequential ran %d", stats.Supersteps, wantSteps)
				}
				for v := range want {
					if got[v] != want[v] {
						t.Fatalf("vertex %d: cluster %v != sequential %v (not bit-identical)",
							v, got[v], want[v])
					}
				}
			})
		}
	}
}

// TestClusterStatsMatchInProcess compares a cluster run's stats against the
// same job over an in-process TCP mesh: the message schedule and framed byte
// counts must be identical — worker processes report exactly the traffic the
// single-process mesh carries.
func TestClusterStatsMatchInProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	g := oracleGraph(23, 200, 600)
	const p = 4
	a, err := graphpart.AllPartitioners(42)["tlp"].Partition(g, p)
	if err != nil {
		t.Fatalf("partition: %v", err)
	}
	prog := func() engine.Program { return engine.NewPageRank(g.NumVertices(), 0.85, 1e-8) }

	e, err := engine.New(g, a)
	if err != nil {
		t.Fatalf("engine.New: %v", err)
	}
	localVals, localStats, err := e.RunWith(prog(), 20, newTCP(t, p))
	if err != nil {
		t.Fatalf("RunWith over TCP: %v", err)
	}
	clusterVals, clusterStats, err := wire.RunCluster(g, a, prog(), 20, nil)
	if err != nil {
		t.Fatalf("RunCluster: %v", err)
	}
	for v := range localVals {
		if localVals[v] != clusterVals[v] {
			t.Fatalf("vertex %d: in-process %v != cluster %v", v, localVals[v], clusterVals[v])
		}
	}
	if localStats.Supersteps != clusterStats.Supersteps {
		t.Fatalf("supersteps: in-process %d, cluster %d", localStats.Supersteps, clusterStats.Supersteps)
	}
	if localStats.Messages() != clusterStats.Messages() || localStats.Bytes() != clusterStats.Bytes() {
		t.Fatalf("traffic: in-process %d msgs/%d bytes, cluster %d msgs/%d bytes",
			localStats.Messages(), localStats.Bytes(), clusterStats.Messages(), clusterStats.Bytes())
	}
	if localStats.TotalReplicas != clusterStats.TotalReplicas || localStats.Masters != clusterStats.Masters {
		t.Fatalf("placement: in-process %d/%d, cluster %d/%d",
			localStats.TotalReplicas, localStats.Masters, clusterStats.TotalReplicas, clusterStats.Masters)
	}
	if len(localStats.PerStep) != len(clusterStats.PerStep) {
		t.Fatalf("per-step lengths: in-process %d, cluster %d", len(localStats.PerStep), len(clusterStats.PerStep))
	}
	for i := range localStats.PerStep {
		if localStats.PerStep[i] != clusterStats.PerStep[i] {
			t.Fatalf("step %d totals: in-process %+v, cluster %+v",
				i, localStats.PerStep[i], clusterStats.PerStep[i])
		}
	}
	for i := 0; i < p; i++ {
		for j := 0; j < p; j++ {
			if localStats.Links.Messages[i][j] != clusterStats.Links.Messages[i][j] ||
				localStats.Links.Bytes[i][j] != clusterStats.Links.Bytes[i][j] {
				t.Fatalf("link %d->%d: in-process %d msgs/%d bytes, cluster %d msgs/%d bytes", i, j,
					localStats.Links.Messages[i][j], localStats.Links.Bytes[i][j],
					clusterStats.Links.Messages[i][j], clusterStats.Links.Bytes[i][j])
			}
		}
	}
}

// unregistered is a valid program whose type has no wire spec.
type unregistered struct{ engine.Components }

// TestClusterRejectsUnknownProgram checks the spec codec's closed-world
// rule: a program outside the registered set cannot cross process
// boundaries and fails fast, before any worker is spawned.
func TestClusterRejectsUnknownProgram(t *testing.T) {
	g := oracleGraph(3, 20, 20)
	a, err := graphpart.AllPartitioners(1)["random"].Partition(g, 2)
	if err != nil {
		t.Fatalf("partition: %v", err)
	}
	_, _, err = wire.RunCluster(g, a, &unregistered{}, 5, nil)
	if err == nil {
		t.Fatal("RunCluster accepted a program with no wire spec")
	}
}

// TestClusterRefusesBeforeSpawn checks that RunCluster rejects input it
// cannot ship before it starts a worker. The worker command does not exist,
// so a check that ran after the spawn loop would surface as "start worker 0"
// instead of the row's own error, and the p = 1025 row cannot start 1025
// processes.
func TestClusterRefusesBeforeSpawn(t *testing.T) {
	g := oracleGraph(5, 30, 30)
	assign := func(p int, skip int) *partition.Assignment {
		a := partition.MustNew(g.NumEdges(), p)
		for id := 0; id < g.NumEdges(); id++ {
			if id != skip {
				a.Assign(graph.EdgeID(id), id%p)
			}
		}
		return a
	}
	opt := &wire.ClusterOptions{Command: []string{filepath.Join(t.TempDir(), "no-such-worker")}}
	for _, tc := range []struct {
		name string
		a    *partition.Assignment
		prog engine.Program
		want string
	}{
		{"p=1025", assign(1025, -1), &engine.Components{}, "at most 1024"},
		{"unassigned edge", assign(2, 7), &engine.Components{}, "edge 7 is unassigned"},
		{"unknown program", assign(2, -1), &unregistered{}, "only pagerank/components/sssp"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := wire.RunCluster(g, tc.a, tc.prog, 5, opt)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("RunCluster error %v, want one containing %q", err, tc.want)
			}
		})
	}
}
