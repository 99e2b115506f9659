package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestTable3CSVOnlyForTable3 pins that only -exp table3 (and all) writes
// table3.csv, so regenerating one committed table from a dataset subset
// cannot overwrite Table III with that subset.
func TestTable3CSVOnlyForTable3(t *testing.T) {
	for _, c := range []struct {
		exp, csv   string
		wantTable3 bool
	}{
		{exp: "timing", csv: "timing_p4.csv", wantTable3: false},
		{exp: "table3", csv: "table3.csv", wantTable3: true},
	} {
		dir := t.TempDir()
		var out bytes.Buffer
		if err := run([]string{"-exp", c.exp, "-quick", "-datasets", "G1s", "-csv", dir, "-workers", "1"}, &out); err != nil {
			t.Fatalf("-exp %s: %v", c.exp, err)
		}
		if _, err := os.Stat(filepath.Join(dir, c.csv)); err != nil {
			t.Fatalf("-exp %s wrote no %s: %v", c.exp, c.csv, err)
		}
		_, err := os.Stat(filepath.Join(dir, "table3.csv"))
		if got := err == nil; got != c.wantTable3 {
			t.Fatalf("-exp %s: table3.csv written = %v, want %v", c.exp, got, c.wantTable3)
		}
		if !strings.Contains(out.String(), "TABLE III") {
			t.Fatalf("-exp %s no longer prints the dataset table it ran on", c.exp)
		}
	}
}

// TestUnknownExperimentFailsBeforeGeneration pins that a bad -exp value is
// rejected before any dataset is generated or any output is written.
func TestUnknownExperimentFailsBeforeGeneration(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	err := run([]string{"-exp", "bogus", "-csv", dir}, &out)
	if err == nil || !strings.Contains(err.Error(), `unknown experiment "bogus"`) {
		t.Fatalf("err = %v, want unknown experiment", err)
	}
	if out.Len() != 0 {
		t.Fatalf("rejected run still wrote output:\n%s", out.String())
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 0 {
		t.Fatalf("rejected run wrote %d files", len(entries))
	}
}
