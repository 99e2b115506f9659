package harness

import (
	"fmt"
	"strconv"
	"text/tabwriter"

	"github.com/graphpart/graphpart/internal/core"
	"github.com/graphpart/graphpart/internal/graph"
	"github.com/graphpart/graphpart/internal/partition"
	"github.com/graphpart/graphpart/internal/refine"
)

// refined runs a partitioner and then the move/swap refinement pass on its
// result.
type refined struct{ partition.Partitioner }

func (r refined) Partition(g *graph.Graph, p int) (*partition.Assignment, error) {
	a, err := r.Partitioner.Partition(g, p)
	if err != nil {
		return nil, err
	}
	if _, err := refine.Run(g, a, refine.Options{}); err != nil {
		return nil, err
	}
	return a, nil
}

// ablationFamilies is the ablation's columns: roster families plus the two
// TLP variants only the ablation runs.
func ablationFamilies() []family {
	tlp := pick("TLP")[0]
	fams := []family{
		tlp,
		{name: "TLP+maxdeg", make: func(seed uint64) partition.Partitioner {
			return core.MustNew(core.Options{Seed: seed, Stage1Policy: core.PolicyMaxDegree})
		}},
		{name: "TLP+refine", make: func(seed uint64) partition.Partitioner { return refined{tlp.make(seed)} }},
	}
	return append(fams, pick("TLP-SW", "KL(flat)", "METIS")...)
}

// RunAblation measures the DESIGN.md §6 design-choice ablations (Stage-I
// policy, refinement pass, sliding window, multilevel vs flat) on every
// dataset at one partition count.
func RunAblation(cfg Config, p int) error {
	cfg = cfg.withDefaults()
	fams := ablationFamilies()
	// A nil cell is one skipped above its family's edge bound.
	cells, err := runGrid(cfg, fams, []int{p}, func(_ *graph.Graph, r Result, a *partition.Assignment) (*Result, error) {
		if a == nil {
			return nil, nil
		}
		return &r, nil
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(cfg.Out, "\nABLATION (p=%d): replication factor by variant\n", p)
	tw := tabwriter.NewWriter(cfg.Out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, familyHeader(fams))
	var rows [][]string
	for di, d := range cfg.Datasets {
		row := d.Notation
		for fi, f := range fams {
			c := cells[di*len(fams)+fi]
			if c == nil {
				row += "\t-"
				rows = append(rows, []string{d.Notation, f.name, strconv.Itoa(p), "", ""})
				continue
			}
			row += fmt.Sprintf("\t%.3f", c.RF)
			rows = append(rows, []string{d.Notation, f.name, strconv.Itoa(p),
				fmt.Sprintf("%.4f", c.RF), fmt.Sprintf("%.3f", c.Seconds)})
		}
		fmt.Fprintln(tw, row)
	}
	if err := tw.Flush(); err != nil {
		return fmt.Errorf("harness: flushing ablation: %w", err)
	}
	return writeCSV(cfg, fmt.Sprintf("ablation_p%d.csv", p),
		[]string{"dataset", "variant", "p", "rf", "seconds"}, rows)
}
