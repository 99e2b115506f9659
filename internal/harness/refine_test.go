package harness

import (
	"encoding/csv"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"github.com/graphpart/graphpart/internal/engine"
	"github.com/graphpart/graphpart/internal/partition"
	"github.com/graphpart/graphpart/internal/refine"
	"github.com/graphpart/graphpart/internal/streaming"
)

// TestRunRefineAblation exercises the refinement experiment on the small
// datasets and checks its headline claim: the move/swap local search never
// worsens the replication factor and strictly improves it on the large
// majority of the grid (the streaming families leave plenty on the table).
func TestRunRefineAblation(t *testing.T) {
	cfg, buf := quickConfig(t)
	if err := RunRefineAblation(cfg, 4); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "REFINE (p=4)") {
		t.Fatalf("refine ablation output missing content:\n%s", out)
	}
	path := filepath.Join(cfg.CSVDir, "refine.csv")
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("refine.csv not written: %v", err)
	}
	defer f.Close()
	rows, err := csv.NewReader(f).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	wantHeader := "dataset,algorithm,p,rf_before,rf_after,balance_before,balance_after," +
		"passes,moves,swaps,replicas_removed,partition_seconds,refine_seconds"
	if got := strings.Join(rows[0], ","); got != wantHeader {
		t.Fatalf("header = %q, want %q", got, wantHeader)
	}
	// 3 datasets x 10 partitioners, skips still emit rows.
	if want := 3*10 + 1; len(rows) != want {
		t.Fatalf("got %d rows, want %d", len(rows), want)
	}
	ran, improved := 0, 0
	for _, row := range rows[1:] {
		if row[3] == "" {
			continue // skipped cell
		}
		before, err := strconv.ParseFloat(row[3], 64)
		if err != nil {
			t.Fatalf("bad rf_before %q: %v", row[3], err)
		}
		after, err := strconv.ParseFloat(row[4], 64)
		if err != nil {
			t.Fatalf("bad rf_after %q: %v", row[4], err)
		}
		ran++
		if after > before {
			t.Errorf("%s/%s: refinement worsened RF %.4f -> %.4f", row[0], row[1], before, after)
		}
		if after < before {
			improved++
		}
	}
	if ran == 0 {
		t.Fatal("no cells ran")
	}
	if 5*improved < 4*ran {
		t.Errorf("refinement strictly improved only %d of %d cells; want >= 80%%", improved, ran)
	}
}

// TestRefinedPartitionMovesFewerMessages is the end-to-end payoff check: on
// the share-nothing runtime, a refined assignment must move strictly fewer
// synchronisation messages (and bytes) than the assignment it was refined
// from.
func TestRefinedPartitionMovesFewerMessages(t *testing.T) {
	cfg, _ := quickConfig(t)
	g := generateAll(cfg)[cfg.Datasets[0].Notation]
	p := 4
	base, err := streaming.NewRandom(cfg.Seed).Partition(g, p)
	if err != nil {
		t.Fatal(err)
	}
	refined := base.Clone()
	stats, err := refine.Run(g, refined, refine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.RFAfter >= stats.RFBefore {
		t.Fatalf("refinement found nothing on a random partitioning: %+v", stats)
	}
	run := func(a *partition.Assignment) engine.Stats {
		e, err := engine.New(g, a)
		if err != nil {
			t.Fatal(err)
		}
		_, st, err := e.Run(engine.NewPageRank(g.NumVertices(), 0.85, 1e-9), 8)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	before, after := run(base), run(refined)
	if after.Messages() >= before.Messages() {
		t.Fatalf("refined partition moved %d messages, unrefined %d; want strictly fewer",
			after.Messages(), before.Messages())
	}
	if after.Bytes() >= before.Bytes() {
		t.Fatalf("refined partition moved %d bytes, unrefined %d; want strictly fewer",
			after.Bytes(), before.Bytes())
	}
	t.Logf("pagerank messages %d -> %d, bytes %d -> %d (RF %.3f -> %.3f)",
		before.Messages(), after.Messages(), before.Bytes(), after.Bytes(),
		stats.RFBefore, stats.RFAfter)
}
