package harness

import (
	"encoding/csv"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestRunEngineComparison exercises the downstream-communication experiment
// on the small datasets and checks the claim it exists to demonstrate:
// partitioners with lower replication factor generate less synchronisation
// traffic on the share-nothing runtime.
func TestRunEngineComparison(t *testing.T) {
	cfg, buf := quickConfig(t)
	if err := RunEngineComparison(cfg, 4); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "ENGINE (p=4)") || !strings.Contains(out, "pagerank") {
		t.Fatalf("engine comparison output missing content:\n%s", out)
	}
	path := filepath.Join(cfg.CSVDir, "engine_comm.csv")
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("engine_comm.csv not written: %v", err)
	}
	defer f.Close()
	rows, err := csv.NewReader(f).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	wantHeader := "dataset,algorithm,p,program,rf,supersteps,messages,bytes,partition_seconds,run_seconds"
	if got := strings.Join(rows[0], ","); got != wantHeader {
		t.Fatalf("header = %q, want %q", got, wantHeader)
	}
	// 3 datasets x 10 partitioners x 2 programs (skips still emit rows).
	if want := 3*10*2 + 1; len(rows) != want {
		t.Fatalf("got %d rows, want %d", len(rows), want)
	}
	// RF drives traffic: per (dataset, program), TLP must beat Random on
	// both replication factor and message volume.
	type cell struct {
		rf       float64
		messages int64
	}
	cells := make(map[string]cell)
	for _, row := range rows[1:] {
		if row[4] == "" {
			continue // skipped cell
		}
		rf, err := strconv.ParseFloat(row[4], 64)
		if err != nil {
			t.Fatalf("bad rf %q: %v", row[4], err)
		}
		msgs, err := strconv.ParseInt(row[6], 10, 64)
		if err != nil {
			t.Fatalf("bad messages %q: %v", row[6], err)
		}
		if msgs <= 0 {
			t.Errorf("%s/%s/%s: no traffic recorded", row[0], row[1], row[3])
		}
		cells[row[0]+"/"+row[1]+"/"+row[3]] = cell{rf, msgs}
	}
	for _, d := range cfg.Datasets {
		for _, prog := range []string{"pagerank", "components"} {
			tlp := cells[d.Notation+"/TLP/"+prog]
			rnd := cells[d.Notation+"/Random/"+prog]
			if tlp.rf >= rnd.rf {
				t.Errorf("%s/%s: TLP rf %.3f not below Random rf %.3f", d.Notation, prog, tlp.rf, rnd.rf)
			}
			if tlp.messages >= rnd.messages {
				t.Errorf("%s/%s: TLP messages %d not below Random %d (rf %.3f vs %.3f)",
					d.Notation, prog, tlp.messages, rnd.messages, tlp.rf, rnd.rf)
			}
		}
	}
}
