package harness

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"

	"github.com/graphpart/graphpart"
	"github.com/graphpart/graphpart/internal/gen"
)

// quickConfig runs everything on the small dataset variants with two tiny
// partition counts so the whole harness is exercised in well under a second
// per experiment.
func quickConfig(t *testing.T) (Config, *bytes.Buffer) {
	t.Helper()
	var buf bytes.Buffer
	return Config{
		Seed:     7,
		Datasets: gen.SmallDatasets()[:3],
		Ps:       []int{4, 6},
		Out:      &buf,
		CSVDir:   t.TempDir(),
	}, &buf
}

func TestRunTable3(t *testing.T) {
	cfg, buf := quickConfig(t)
	if err := RunTable3(cfg); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "TABLE III") || !strings.Contains(out, "G1s") {
		t.Fatalf("table output missing content:\n%s", out)
	}
	if _, err := os.Stat(filepath.Join(cfg.CSVDir, "table3.csv")); err != nil {
		t.Fatalf("table3.csv not written: %v", err)
	}
}

func TestRunFig8AndTable4(t *testing.T) {
	cfg, buf := quickConfig(t)
	results, err := RunFig8(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 3 datasets x 5 algorithms x 2 p values.
	if want := 3 * 5 * 2; len(results) != want {
		t.Fatalf("got %d results, want %d", len(results), want)
	}
	for _, r := range results {
		if r.RF < 1 || r.RF > float64(r.P) {
			t.Fatalf("%s/%s p=%d RF=%v out of range", r.Dataset, r.Algorithm, r.P, r.RF)
		}
	}
	if err := RunTable4(cfg, results); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "TABLE IV") || !strings.Contains(out, "FIG 8") {
		t.Fatalf("missing experiment headers:\n%s", out)
	}
	for _, f := range []string{"fig8.csv", "table4.csv"} {
		if _, err := os.Stat(filepath.Join(cfg.CSVDir, f)); err != nil {
			t.Fatalf("%s not written: %v", f, err)
		}
	}
}

func TestRunFigR(t *testing.T) {
	cfg, buf := quickConfig(t)
	cfg.Datasets = gen.SmallDatasets()[:2]
	results, err := RunFigR(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Per dataset: 1 TLP + 11 TLP_R.
	if want := 2 * 12; len(results) != want {
		t.Fatalf("got %d results, want %d", len(results), want)
	}
	if !strings.Contains(buf.String(), "R=0.5") {
		t.Fatal("missing R column")
	}
	if _, err := os.Stat(filepath.Join(cfg.CSVDir, "figR_p4.csv")); err != nil {
		t.Fatalf("figR csv not written: %v", err)
	}
}

func TestRunTable6(t *testing.T) {
	cfg, buf := quickConfig(t)
	cfg.Datasets = gen.SmallDatasets()[:2]
	if err := RunTable6(cfg); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "TABLE VI") {
		t.Fatal("missing table VI header")
	}
	if _, err := os.Stat(filepath.Join(cfg.CSVDir, "table6.csv")); err != nil {
		t.Fatalf("table6.csv not written: %v", err)
	}
}

func TestAlgorithmsRoster(t *testing.T) {
	want := []string{"TLP", "METIS", "LDG", "DBH", "Random"}
	if len(fig8Families) != len(want) {
		t.Fatalf("roster size %d", len(fig8Families))
	}
	for i, f := range fig8Families {
		if f.name != want[i] {
			t.Fatalf("roster[%d] = %s, want %s", i, f.name, want[i])
		}
		if name := f.make(1).Name(); name != want[i] {
			t.Fatalf("roster[%d] builds %s, want %s", i, name, want[i])
		}
	}
}

// TestRosterMatchesAllPartitioners pins that the harness roster and the
// public registry build the same set of partitioners, so a family added to
// one and not the other fails here.
func TestRosterMatchesAllPartitioners(t *testing.T) {
	var fromRoster, fromRegistry []string
	for _, f := range roster {
		fromRoster = append(fromRoster, f.make(1).Name())
	}
	for _, pt := range graphpart.AllPartitioners(1) {
		fromRegistry = append(fromRegistry, pt.Name())
	}
	sort.Strings(fromRoster)
	sort.Strings(fromRegistry)
	if !slices.Equal(fromRoster, fromRegistry) {
		t.Fatalf("roster builds %v, AllPartitioners builds %v", fromRoster, fromRegistry)
	}
}

func TestNoCSVWhenDirEmpty(t *testing.T) {
	cfg, _ := quickConfig(t)
	cfg.CSVDir = ""
	if err := writeCSV(cfg, "x.csv", []string{"a"}, nil); err != nil {
		t.Fatalf("empty CSVDir should be a no-op: %v", err)
	}
}

func TestRunAblation(t *testing.T) {
	cfg, buf := quickConfig(t)
	cfg.Datasets = gen.SmallDatasets()[:2]
	if err := RunAblation(cfg, 4); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"ABLATION", "TLP+refine", "TLP-SW", "KL(flat)"} {
		if !strings.Contains(out, want) {
			t.Fatalf("ablation output missing %q", want)
		}
	}
	if _, err := os.Stat(filepath.Join(cfg.CSVDir, "ablation_p4.csv")); err != nil {
		t.Fatalf("ablation csv not written: %v", err)
	}
}
