package harness

import (
	"bytes"
	"encoding/csv"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"github.com/graphpart/graphpart/internal/gen"
	"github.com/graphpart/graphpart/internal/graph"
	"github.com/graphpart/graphpart/internal/parallel"
)

// runEverything drives every experiment once and returns the rendered text,
// the Fig. 8 results and the CSV directory.
func runEverything(t *testing.T, workers int) (string, []Result, string) {
	t.Helper()
	var buf bytes.Buffer
	cfg := Config{
		Seed:     7,
		Datasets: gen.SmallDatasets()[:3],
		Ps:       []int{4, 6},
		Out:      &buf,
		CSVDir:   t.TempDir(),
		Workers:  workers,
	}
	if err := RunTable3(cfg); err != nil {
		t.Fatal(err)
	}
	results, err := RunFig8(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := RunTable4(cfg, results); err != nil {
		t.Fatal(err)
	}
	if _, err := RunFigR(cfg, 4); err != nil {
		t.Fatal(err)
	}
	if err := RunTable6(cfg); err != nil {
		t.Fatal(err)
	}
	if err := RunAblation(cfg, 4); err != nil {
		t.Fatal(err)
	}
	if err := RunWindowAblation(cfg, 4); err != nil {
		t.Fatal(err)
	}
	if err := RunEngineComparison(cfg, 4); err != nil {
		t.Fatal(err)
	}
	if err := RunRefineAblation(cfg, 4); err != nil {
		t.Fatal(err)
	}
	return buf.String(), results, cfg.CSVDir
}

// stripSeconds drops wall-clock columns from CSV rows so runs can be
// compared; every other column must match byte for byte.
func stripSeconds(t *testing.T, path string, dropCols map[string]bool) [][]string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rows, err := csv.NewReader(f).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		return rows
	}
	var keep []int
	for i, name := range rows[0] {
		if !dropCols[name] {
			keep = append(keep, i)
		}
	}
	out := make([][]string, len(rows))
	for r, row := range rows {
		for _, c := range keep {
			out[r] = append(out[r], row[c])
		}
	}
	return out
}

// TestHarnessWorkerCountInvariance is the PR's headline guarantee: with the
// same seed, the parallel harness renders byte-identical tables and
// byte-identical CSV rows (timing columns aside) for any worker count.
func TestHarnessWorkerCountInvariance(t *testing.T) {
	out1, res1, dir1 := runEverything(t, 1)
	workers := runtime.NumCPU()
	if workers < 2 {
		workers = 8 // still exercises the pool on single-core machines
	}
	outN, resN, dirN := runEverything(t, workers)

	if out1 != outN {
		t.Fatalf("rendered output differs between Workers=1 and Workers=%d:\n--- sequential ---\n%s\n--- parallel ---\n%s",
			workers, out1, outN)
	}
	if len(res1) != len(resN) {
		t.Fatalf("result counts differ: %d vs %d", len(res1), len(resN))
	}
	for i := range res1 {
		a, b := res1[i], resN[i]
		if a.Dataset != b.Dataset || a.Algorithm != b.Algorithm || a.P != b.P ||
			a.RF != b.RF || a.Balance != b.Balance {
			t.Fatalf("result %d differs:\nWorkers=1: %+v\nWorkers=%d: %+v", i, a, workers, b)
		}
	}
	drop := map[string]bool{"seconds": true, "partition_seconds": true, "run_seconds": true, "refine_seconds": true}
	for _, name := range []string{"table3.csv", "fig8.csv", "table4.csv", "figR_p4.csv", "table6.csv", "ablation_p4.csv", "window_p4.csv", "engine_comm.csv", "refine.csv"} {
		rows1 := stripSeconds(t, filepath.Join(dir1, name), drop)
		rowsN := stripSeconds(t, filepath.Join(dirN, name), drop)
		if len(rows1) != len(rowsN) {
			t.Fatalf("%s: row counts differ: %d vs %d", name, len(rows1), len(rowsN))
		}
		for r := range rows1 {
			for c := range rows1[r] {
				if rows1[r][c] != rowsN[r][c] {
					t.Fatalf("%s row %d col %d: %q vs %q", name, r, c, rows1[r][c], rowsN[r][c])
				}
			}
		}
	}
}

// TestHarnessRepeatedRunsSameSeed checks that back-to-back parallel runs at
// one seed agree with each other (no hidden shared state across runs).
func TestHarnessRepeatedRunsSameSeed(t *testing.T) {
	outA, _, _ := runEverything(t, 4)
	outB, _, _ := runEverything(t, 4)
	if outA != outB {
		t.Fatalf("repeated runs differ:\n--- first ---\n%s\n--- second ---\n%s", outA, outB)
	}
}

// TestGenerateWorkerCountInvariance checks the generated graphs themselves
// (not just derived tables) are independent of the worker-count setting.
func TestGenerateWorkerCountInvariance(t *testing.T) {
	d := gen.SmallDatasets()[4] // G5s: power-law family

	t.Setenv(parallel.EnvWorkers, "1")
	g1 := d.Generate(7)
	t.Setenv(parallel.EnvWorkers, "8")
	g8 := d.Generate(7)

	if g1.NumVertices() != g8.NumVertices() || g1.NumEdges() != g8.NumEdges() {
		t.Fatalf("sizes differ: (%d,%d) vs (%d,%d)",
			g1.NumVertices(), g1.NumEdges(), g8.NumVertices(), g8.NumEdges())
	}
	e1, e8 := g1.Edges(), g8.Edges()
	for i := range e1 {
		if e1[i] != e8[i] {
			t.Fatalf("edge %d differs: %v vs %v", i, e1[i], e8[i])
		}
	}
	for v := 0; v < g1.NumVertices(); v++ {
		n1, n8 := g1.Neighbors(graph.Vertex(v)), g8.Neighbors(graph.Vertex(v))
		if len(n1) != len(n8) {
			t.Fatalf("vertex %d degree differs", v)
		}
		for i := range n1 {
			if n1[i] != n8[i] {
				t.Fatalf("vertex %d neighbor %d differs: %d vs %d", v, i, n1[i], n8[i])
			}
		}
	}
}

// TestGraphCacheSharesBuilds checks repeated generateAll calls at one seed
// return the same underlying graphs instead of regenerating.
func TestGraphCacheSharesBuilds(t *testing.T) {
	cfg := Config{Seed: 7, Datasets: gen.SmallDatasets()[:2], Workers: 2}
	a, b := generateAll(cfg), generateAll(cfg)
	for notation, g := range a {
		if b[notation] != g {
			t.Fatalf("dataset %s regenerated instead of cached", notation)
		}
	}
}
