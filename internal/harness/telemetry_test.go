package harness

import (
	"path/filepath"
	"testing"

	"github.com/graphpart/graphpart/internal/gen"
	"github.com/graphpart/graphpart/internal/obs"
)

// enableTelemetry turns recording on for one test and restores the default
// disabled state (clearing everything recorded) when the test ends. Tests
// using it share process-global state and must not run in parallel.
func enableTelemetry(t *testing.T) {
	t.Helper()
	obs.Enable()
	t.Cleanup(func() {
		obs.Disable()
		obs.ResetTrace()
		obs.Default.Reset()
	})
}

// TestTelemetryDoesNotChangeOutput is the layer's hard invariant: running
// the full experiment suite with tracing and metrics recording enabled must
// render byte-identical tables and byte-identical CSV rows (timing columns
// aside) to a run with telemetry off.
func TestTelemetryDoesNotChangeOutput(t *testing.T) {
	outOff, resOff, dirOff := runEverything(t, 4)

	enableTelemetry(t)
	outOn, resOn, dirOn := runEverything(t, 4)

	if recs, _ := obs.TraceRecords(); len(recs) == 0 {
		t.Fatal("telemetry enabled but no spans recorded")
	}
	if outOff != outOn {
		t.Fatalf("rendered output differs with telemetry on:\n--- off ---\n%s\n--- on ---\n%s", outOff, outOn)
	}
	if len(resOff) != len(resOn) {
		t.Fatalf("result counts differ: %d vs %d", len(resOff), len(resOn))
	}
	for i := range resOff {
		a, b := resOff[i], resOn[i]
		if a.Dataset != b.Dataset || a.Algorithm != b.Algorithm || a.P != b.P ||
			a.RF != b.RF || a.Balance != b.Balance {
			t.Fatalf("result %d differs:\noff: %+v\non:  %+v", i, a, b)
		}
	}
	drop := map[string]bool{"seconds": true, "partition_seconds": true, "run_seconds": true, "refine_seconds": true}
	for _, name := range []string{"table3.csv", "fig8.csv", "table4.csv", "figR_p4.csv", "table6.csv", "ablation_p4.csv", "window_p4.csv", "engine_comm.csv", "refine.csv"} {
		rowsOff := stripSeconds(t, filepath.Join(dirOff, name), drop)
		rowsOn := stripSeconds(t, filepath.Join(dirOn, name), drop)
		if len(rowsOff) != len(rowsOn) {
			t.Fatalf("%s: row counts differ: %d vs %d", name, len(rowsOff), len(rowsOn))
		}
		for r := range rowsOff {
			for c := range rowsOff[r] {
				if rowsOff[r][c] != rowsOn[r][c] {
					t.Fatalf("%s row %d col %d: %q (off) vs %q (on)", name, r, c, rowsOff[r][c], rowsOn[r][c])
				}
			}
		}
	}
}

// TestTelemetryUnderParallelHarness drives the fig8 grid on an 8-worker pool
// with recording on. Under `go test -race` this is the proof that the span
// ring and metric registry tolerate concurrent cells; without the race
// detector it still checks spans from every cell arrive.
func TestTelemetryUnderParallelHarness(t *testing.T) {
	enableTelemetry(t)

	cfg := Config{
		Seed:     7,
		Datasets: gen.SmallDatasets()[:3],
		Ps:       []int{4, 6},
		Out:      discard{},
		Workers:  8,
	}
	results, err := RunFig8(cfg)
	if err != nil {
		t.Fatal(err)
	}

	recs, _ := obs.TraceRecords()
	cells := 0
	for _, rec := range recs {
		if rec.Name == "harness.cell" {
			cells++
		}
	}
	if cells < len(results) {
		t.Fatalf("recorded %d harness.cell spans for %d grid cells", cells, len(results))
	}
}

// discard is an io.Writer that swallows the harness tables.
type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }
