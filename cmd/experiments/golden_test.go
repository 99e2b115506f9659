package main

import (
	"bytes"
	"encoding/csv"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// goldenCSV pins every CSV of `-exp all -quick -datasets G1s,G2s,G3s` at
// the default seed (42): one FNV-1a 64 hash per file, taken over the rows
// with the wall-clock columns dropped and each row joined by commas.
var goldenCSV = map[string]uint64{
	"ablation_p4.csv": 0x363435698d861b00,
	"engine_comm.csv": 0xa7bd6ed3550f9d0e,
	"fig8.csv":        0xde8fcb584d5e65e4,
	"figR_p4.csv":     0x3b217de41cb4b18e,
	"figR_p6.csv":     0x875964262cefd788,
	"figR_p8.csv":     0x557c751a71a7f100,
	"refine.csv":      0x6e2f9bde757cf738,
	"table3.csv":      0x30407ffe04dac0d9,
	"table4.csv":      0xf76c8f130b1186e9,
	"table6.csv":      0xbb9a07619b4f7b4c,
	"timing_p4.csv":   0xedd11705abf2603a,
	"window_p4.csv":   0x73f26d798bb06467,
}

// secondsColumns are the wall-clock columns the golden ignores.
var secondsColumns = map[string]bool{
	"seconds": true, "partition_seconds": true, "run_seconds": true, "refine_seconds": true,
}

// hashCSV returns the FNV-1a 64 hash of path's rows with the seconds
// columns removed.
func hashCSV(t *testing.T, path string) uint64 {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rows, err := csv.NewReader(f).ReadAll()
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	h := fnv.New64a()
	for _, row := range rows {
		var keep []string
		for c, cell := range row {
			if !secondsColumns[rows[0][c]] {
				keep = append(keep, cell)
			}
		}
		h.Write([]byte(strings.Join(keep, ",") + "\n"))
	}
	return h.Sum64()
}

// TestQuickSuiteGolden runs the whole quick suite at one and four workers
// and checks that both produce exactly the pinned CSVs: the harness's
// worker-invariance oracle and a regression pin on every non-seconds cell.
func TestQuickSuiteGolden(t *testing.T) {
	for _, workers := range []int{1, 4} {
		dir := t.TempDir()
		var out bytes.Buffer
		args := []string{"-exp", "all", "-quick", "-datasets", "G1s,G2s,G3s",
			"-workers", strconv.Itoa(workers), "-csv", dir}
		if err := run(args, &out); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		sort.Strings(names)
		if len(names) != len(goldenCSV) {
			t.Fatalf("workers=%d wrote %d CSVs %v, want %d", workers, len(names), names, len(goldenCSV))
		}
		for _, name := range names {
			want, ok := goldenCSV[name]
			if !ok {
				t.Fatalf("workers=%d wrote unexpected %s", workers, name)
			}
			if got := hashCSV(t, filepath.Join(dir, name)); got != want {
				t.Errorf("workers=%d %s: hash %#x, want %#x", workers, name, got, want)
			}
		}
	}
}
