package harness

import (
	"fmt"
	"strconv"
	"text/tabwriter"

	"github.com/graphpart/graphpart/internal/obs"
	"github.com/graphpart/graphpart/internal/parallel"
	"github.com/graphpart/graphpart/internal/partition"
	"github.com/graphpart/graphpart/internal/source"
	"github.com/graphpart/graphpart/internal/window"
)

// windowMultipliers are the window sizes swept by RunWindowAblation,
// expressed as multiples of the per-partition capacity C = ceil(m/p):
// half a partition's worth of context up to the default four.
var windowMultipliers = []float64{0.5, 1, 2, 4}

// RunWindowAblation sweeps the sliding-window TLP's window size on every
// dataset at one partition count, reporting replication factor alongside the
// window behaviour counters (peak resident edges, final-sweep edges): a
// smaller window holds less context per growth decision, so quality
// degrades.
func RunWindowAblation(cfg Config, p int) error {
	cfg = cfg.withDefaults()
	graphs := generateAll(cfg)
	type windowCell struct {
		rf      float64
		stats   window.Stats
		win     int
		seconds float64
	}
	// Fan the (dataset, multiplier) cells out over the pool.
	cells, err := parallel.MapErr(len(cfg.Datasets)*len(windowMultipliers), cfg.Workers, func(i int) (windowCell, error) {
		d := cfg.Datasets[i/len(windowMultipliers)]
		mult := windowMultipliers[i%len(windowMultipliers)]
		g := graphs[d.Notation]
		capC := partition.Capacity(g.NumEdges(), p)
		win := int(float64(capC) * mult)
		if win < 16 {
			win = 16
		}
		w := window.New(window.Config{Seed: cfg.Seed, WindowEdges: win})
		src := source.FromGraph(g, source.OrderBFS, cfg.Seed)
		watch := obs.StartWatch()
		a, stats, err := w.PartitionStreamStats(src, p)
		if err != nil {
			return windowCell{}, fmt.Errorf("harness: window ablation %gC on %s: %w", mult, d.Notation, err)
		}
		rf, err := partition.ReplicationFactor(g, a)
		if err != nil {
			return windowCell{}, fmt.Errorf("harness: window ablation metrics %gC on %s: %w", mult, d.Notation, err)
		}
		return windowCell{rf: rf, stats: stats, win: win, seconds: watch.Seconds()}, nil
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(cfg.Out, "\nWINDOW ABLATION (p=%d): TLP-SW replication factor by window size\n", p)
	tw := tabwriter.NewWriter(cfg.Out, 2, 4, 2, ' ', 0)
	header := "graph"
	for _, mult := range windowMultipliers {
		header += fmt.Sprintf("\t%gC\t(peak/swept)", mult)
	}
	fmt.Fprintln(tw, header)
	var rows [][]string
	for di, d := range cfg.Datasets {
		row := d.Notation
		for mi, mult := range windowMultipliers {
			c := cells[di*len(windowMultipliers)+mi]
			row += fmt.Sprintf("\t%.3f\t(%d/%d)", c.rf, c.stats.PeakWindowEdges, c.stats.SweptEdges)
			rows = append(rows, []string{d.Notation, fmt.Sprintf("%g", mult),
				strconv.Itoa(p), strconv.Itoa(c.win), fmt.Sprintf("%.4f", c.rf),
				strconv.Itoa(c.stats.PeakWindowEdges), strconv.Itoa(c.stats.SweptEdges),
				fmt.Sprintf("%.3f", c.seconds)})
		}
		fmt.Fprintln(tw, row)
	}
	if err := tw.Flush(); err != nil {
		return fmt.Errorf("harness: flushing window ablation: %w", err)
	}
	return writeCSV(cfg, fmt.Sprintf("window_p%d.csv", p),
		[]string{"dataset", "window_mult", "p", "window_edges", "rf", "peak_window", "swept", "seconds"}, rows)
}
