package harness

import (
	"errors"
	"fmt"
	"strconv"
	"text/tabwriter"

	"github.com/graphpart/graphpart/internal/core"
	"github.com/graphpart/graphpart/internal/graph"
	"github.com/graphpart/graphpart/internal/metis"
	"github.com/graphpart/graphpart/internal/obs"
	"github.com/graphpart/graphpart/internal/parallel"
	"github.com/graphpart/graphpart/internal/partition"
	"github.com/graphpart/graphpart/internal/refine"
	"github.com/graphpart/graphpart/internal/window"
)

// errSkipped marks an ablation cell intentionally not run (e.g. flat KL on
// a graph too large for its quadratic growth phase).
var errSkipped = errors.New("harness: ablation cell skipped")

// ablationRunner is a named partition-then-measure step; some entries add a
// refinement pass, which a plain partition.Partitioner cannot express.
type ablationRunner struct {
	name string
	run  func(g *graph.Graph, p int, seed uint64) (*partition.Assignment, error)
}

func ablationRoster() []ablationRunner {
	return []ablationRunner{
		{"TLP", func(g *graph.Graph, p int, seed uint64) (*partition.Assignment, error) {
			return core.MustNew(core.Options{Seed: seed}).Partition(g, p)
		}},
		{"TLP+maxdeg", func(g *graph.Graph, p int, seed uint64) (*partition.Assignment, error) {
			return core.MustNew(core.Options{Seed: seed, Stage1Policy: core.PolicyMaxDegree}).Partition(g, p)
		}},
		{"TLP+refine", func(g *graph.Graph, p int, seed uint64) (*partition.Assignment, error) {
			a, err := core.MustNew(core.Options{Seed: seed}).Partition(g, p)
			if err != nil {
				return nil, err
			}
			if _, err := refine.Run(g, a, refine.Options{}); err != nil {
				return nil, err
			}
			return a, nil
		}},
		{"TLP-SW", func(g *graph.Graph, p int, seed uint64) (*partition.Assignment, error) {
			// Core's growth round over the window's CSR: near-linear
			// in m, so it runs on every dataset.
			return window.New(window.Config{Seed: seed}).Partition(g, p)
		}},
		{"KL(flat)", func(g *graph.Graph, p int, seed uint64) (*partition.Assignment, error) {
			// Flat KL is quadratic without coarsening (the reason
			// multilevel exists); bound it to graphs it can handle.
			if g.NumEdges() > 150000 {
				return nil, errSkipped
			}
			return metis.NewFlatKL(metis.Config{Seed: seed}).Partition(g, p)
		}},
		{"METIS", func(g *graph.Graph, p int, seed uint64) (*partition.Assignment, error) {
			return metis.New(metis.Config{Seed: seed}).Partition(g, p)
		}},
	}
}

// RunAblation measures the DESIGN.md §6 design-choice ablations (Stage-I
// policy, refinement pass, sliding window, multilevel vs flat) on every
// dataset at one partition count.
func RunAblation(cfg Config, graphs map[string]*graph.Graph, p int) error {
	cfg = cfg.withDefaults()
	var err error
	if graphs == nil {
		graphs, err = generateAll(cfg)
		if err != nil {
			return err
		}
	}
	roster := ablationRoster()
	// Fan the (dataset, variant) cells out over the pool; skipped cells
	// are a result, not an error, so one skip never aborts the grid.
	type ablationCell struct {
		rf      float64
		seconds float64
		skipped bool
	}
	cells, err := parallel.MapErr(len(cfg.Datasets)*len(roster), cfg.Workers, func(i int) (ablationCell, error) {
		d := cfg.Datasets[i/len(roster)]
		r := roster[i%len(roster)]
		g := graphs[d.Notation]
		watch := obs.StartWatch()
		a, err := r.run(g, p, cfg.Seed)
		if errors.Is(err, errSkipped) {
			return ablationCell{skipped: true}, nil
		}
		if err != nil {
			return ablationCell{}, fmt.Errorf("harness: ablation %s on %s: %w", r.name, d.Notation, err)
		}
		rf, err := partition.ReplicationFactor(g, a)
		if err != nil {
			return ablationCell{}, fmt.Errorf("harness: ablation metrics %s on %s: %w", r.name, d.Notation, err)
		}
		return ablationCell{rf: rf, seconds: watch.Seconds()}, nil
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(cfg.Out, "\nABLATION (p=%d): replication factor by variant\n", p)
	tw := tabwriter.NewWriter(cfg.Out, 2, 4, 2, ' ', 0)
	header := "graph"
	for _, r := range roster {
		header += "\t" + r.name
	}
	fmt.Fprintln(tw, header)
	var rows [][]string
	for di, d := range cfg.Datasets {
		row := d.Notation
		for ri, r := range roster {
			c := cells[di*len(roster)+ri]
			if c.skipped {
				row += "\t-"
				rows = append(rows, []string{d.Notation, r.name, strconv.Itoa(p), "", ""})
				continue
			}
			row += fmt.Sprintf("\t%.3f", c.rf)
			rows = append(rows, []string{d.Notation, r.name, strconv.Itoa(p),
				fmt.Sprintf("%.4f", c.rf), fmt.Sprintf("%.3f", c.seconds)})
		}
		fmt.Fprintln(tw, row)
	}
	if err := tw.Flush(); err != nil {
		return fmt.Errorf("harness: flushing ablation: %w", err)
	}
	return writeCSV(cfg, fmt.Sprintf("ablation_p%d.csv", p),
		[]string{"dataset", "variant", "p", "rf", "seconds"}, rows)
}
