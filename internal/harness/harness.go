// Package harness defines and runs the paper's experiments: Table III
// (datasets), Fig. 8 (RF of five algorithms on nine graphs), Table IV
// (ΔRF between METIS and TLP), Figs. 9-11 (TLP vs TLP_R over R), and
// Table VI (per-stage average degrees). Each experiment renders the same
// rows/series the paper reports and can also emit CSV for plotting.
package harness

import (
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"text/tabwriter"

	"github.com/graphpart/graphpart/internal/core"
	"github.com/graphpart/graphpart/internal/gen"
	"github.com/graphpart/graphpart/internal/graph"
	"github.com/graphpart/graphpart/internal/parallel"
	"github.com/graphpart/graphpart/internal/partition"
)

// Config drives an experiment run.
type Config struct {
	// Seed parameterises dataset generation and every partitioner.
	Seed uint64
	// Datasets to evaluate; nil means the full G1..G9 registry.
	Datasets []gen.Dataset
	// Ps is the list of partition counts; nil means {10, 15, 20}.
	Ps []int
	// Out receives the rendered tables; nil discards them (callers that
	// want terminal output pass os.Stdout explicitly — the library never
	// chooses the destination itself).
	Out io.Writer
	// CSVDir, when non-empty, also writes one CSV per experiment there.
	CSVDir string
	// Workers bounds how many grid cells (and dataset generations) run
	// concurrently. 0 resolves via the GRAPHPART_WORKERS environment
	// variable, then GOMAXPROCS; 1 runs fully sequentially. Every cell
	// gets its own partitioner built from the seed, and results land in
	// pre-sized slices by cell index, so tables and CSV rows are
	// identical for any worker count. Per-cell Seconds are the only
	// numbers affected (concurrent cells contend for cores); use
	// Workers=1 for clean timings.
	Workers int
}

func (c Config) withDefaults() Config {
	if c.Datasets == nil {
		c.Datasets = gen.Datasets()
	}
	if len(c.Ps) == 0 {
		c.Ps = []int{10, 15, 20}
	}
	if c.Out == nil {
		c.Out = io.Discard
	}
	return c
}

// Result is one (dataset, algorithm, p) measurement.
type Result struct {
	Dataset   string
	Algorithm string
	P         int
	RF        float64
	Balance   float64
	Seconds   float64
}

// RunTable3 prints the dataset statistics table (Table III analogue),
// generating the datasets into the cache the other experiments share.
func RunTable3(cfg Config) error {
	cfg = cfg.withDefaults()
	graphs := generateAll(cfg)
	tw := tabwriter.NewWriter(cfg.Out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "TABLE III: datasets (synthetic analogues; see DESIGN.md §4)")
	fmt.Fprintln(tw, "Graph\tNotation\t|V(G)|\t|E(G)|\t|V|+|E|\tfamily")
	var rows [][]string
	for _, d := range cfg.Datasets {
		g := graphs[d.Notation]
		fmt.Fprintf(tw, "%s\t%s\t%d\t%d\t%d\t%s\n",
			d.Name, d.Notation, g.NumVertices(), g.NumEdges(),
			g.NumVertices()+g.NumEdges(), d.Family)
		rows = append(rows, []string{d.Name, d.Notation,
			strconv.Itoa(g.NumVertices()), strconv.Itoa(g.NumEdges()), d.Family})
	}
	if err := tw.Flush(); err != nil {
		return fmt.Errorf("harness: flushing table: %w", err)
	}
	return writeCSV(cfg, "table3.csv",
		[]string{"name", "notation", "vertices", "edges", "family"}, rows)
}

// RunFig8 measures RF for the five-algorithm roster on every dataset and
// partition count, printing one block per p (Fig. 8 a-c).
func RunFig8(cfg Config) ([]Result, error) {
	cfg = cfg.withDefaults()
	results, err := runGrid(cfg, fig8Families, cfg.Ps, measured)
	if err != nil {
		return nil, err
	}
	idx := 0
	for _, p := range cfg.Ps {
		fmt.Fprintf(cfg.Out, "\nFIG 8 (p=%d): replication factor by algorithm\n", p)
		tw := tabwriter.NewWriter(cfg.Out, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, familyHeader(fig8Families))
		for _, d := range cfg.Datasets {
			row := d.Notation
			for range fig8Families {
				row += fmt.Sprintf("\t%.3f", results[idx].RF)
				idx++
			}
			fmt.Fprintln(tw, row)
		}
		if err := tw.Flush(); err != nil {
			return nil, fmt.Errorf("harness: flushing fig8: %w", err)
		}
	}
	rows := make([][]string, 0, len(results))
	for _, r := range results {
		rows = append(rows, []string{r.Dataset, r.Algorithm, strconv.Itoa(r.P),
			fmt.Sprintf("%.4f", r.RF), fmt.Sprintf("%.4f", r.Balance),
			fmt.Sprintf("%.3f", r.Seconds)})
	}
	if err := writeCSV(cfg, "fig8.csv",
		[]string{"dataset", "algorithm", "p", "rf", "balance", "seconds"}, rows); err != nil {
		return nil, err
	}
	return results, nil
}

// RunTable4 derives ΔRF = RF(METIS) - RF(TLP) from Fig. 8 results
// (running them if needed) and prints the Table IV analogue.
func RunTable4(cfg Config, fig8 []Result) error {
	cfg = cfg.withDefaults()
	if fig8 == nil {
		var err error
		fig8, err = RunFig8(cfg)
		if err != nil {
			return err
		}
	}
	rf := map[string]map[int]map[string]float64{} // alg -> p -> dataset -> RF
	for _, r := range fig8 {
		if rf[r.Algorithm] == nil {
			rf[r.Algorithm] = map[int]map[string]float64{}
		}
		if rf[r.Algorithm][r.P] == nil {
			rf[r.Algorithm][r.P] = map[string]float64{}
		}
		rf[r.Algorithm][r.P][r.Dataset] = r.RF
	}
	fmt.Fprintln(cfg.Out, "\nTABLE IV: dRF = RF(METIS) - RF(TLP) (positive means TLP wins)")
	tw := tabwriter.NewWriter(cfg.Out, 2, 4, 2, ' ', 0)
	header := "p"
	for _, d := range cfg.Datasets {
		header += "\t" + d.Notation
	}
	header += "\tAverage"
	fmt.Fprintln(tw, header)
	var rows [][]string
	for _, p := range cfg.Ps {
		row := fmt.Sprintf("p=%d", p)
		sum, cnt := 0.0, 0
		for _, d := range cfg.Datasets {
			delta := rf["METIS"][p][d.Notation] - rf["TLP"][p][d.Notation]
			row += fmt.Sprintf("\t%+.2f", delta)
			rows = append(rows, []string{strconv.Itoa(p), d.Notation, fmt.Sprintf("%.4f", delta)})
			sum += delta
			cnt++
		}
		row += fmt.Sprintf("\t%+.2f", sum/float64(cnt))
		fmt.Fprintln(tw, row)
	}
	if err := tw.Flush(); err != nil {
		return fmt.Errorf("harness: flushing table4: %w", err)
	}
	return writeCSV(cfg, "table4.csv", []string{"p", "dataset", "delta_rf"}, rows)
}

// RunFigR measures TLP against TLP_R for R in {0.0 .. 1.0} at one partition
// count (Fig. 9 has p=10, Fig. 10 p=15, Fig. 11 p=20).
func RunFigR(cfg Config, p int) ([]Result, error) {
	cfg = cfg.withDefaults()
	rs := []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}
	// Variant 0 is plain TLP, variants 1..len(rs) are TLP_R at rs[v-1].
	fams := pick("TLP")
	for _, r := range rs {
		tlpr := func(seed uint64) partition.Partitioner { return core.MustNewTLPR(r, core.Options{Seed: seed}) }
		fams = append(fams, family{name: tlpr(0).Name(), make: tlpr})
	}
	variants := len(fams)
	results, err := runGrid(cfg, fams, []int{p}, measured)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(cfg.Out, "\nFIG (p=%d): TLP vs TLP_R across R\n", p)
	tw := tabwriter.NewWriter(cfg.Out, 2, 4, 2, ' ', 0)
	header := "graph\tTLP"
	for _, r := range rs {
		header += fmt.Sprintf("\tR=%.1f", r)
	}
	fmt.Fprintln(tw, header)
	for di, d := range cfg.Datasets {
		row := d.Notation
		for v := 0; v < variants; v++ {
			row += fmt.Sprintf("\t%.3f", results[di*variants+v].RF)
		}
		fmt.Fprintln(tw, row)
	}
	if err := tw.Flush(); err != nil {
		return nil, fmt.Errorf("harness: flushing figR: %w", err)
	}
	rows := make([][]string, 0, len(results))
	for _, r := range results {
		rows = append(rows, []string{r.Dataset, r.Algorithm, strconv.Itoa(r.P),
			fmt.Sprintf("%.4f", r.RF)})
	}
	return results, writeCSV(cfg, fmt.Sprintf("figR_p%d.csv", p),
		[]string{"dataset", "algorithm", "p", "rf"}, rows)
}

// RunTable6 reports the average original-graph degree of vertices selected
// in Stage I vs Stage II during TLP runs (Table VI analogue).
func RunTable6(cfg Config) error {
	cfg = cfg.withDefaults()
	graphs := generateAll(cfg)
	// Fan the (dataset, p) grid out over the pool with one fresh TLP per
	// cell, collecting the per-stage stats by cell index.
	stats, err := parallel.MapErr(len(cfg.Datasets)*len(cfg.Ps), cfg.Workers, func(i int) (core.Stats, error) {
		d := cfg.Datasets[i/len(cfg.Ps)]
		p := cfg.Ps[i%len(cfg.Ps)]
		tlp := core.MustNew(core.Options{Seed: cfg.Seed})
		_, st, err := tlp.PartitionStats(graphs[d.Notation], p)
		if err != nil {
			return core.Stats{}, fmt.Errorf("harness: table6 %s p=%d: %w", d.Notation, p, err)
		}
		return st, nil
	})
	if err != nil {
		return err
	}
	fmt.Fprintln(cfg.Out, "\nTABLE VI: average degree of vertices selected per stage")
	tw := tabwriter.NewWriter(cfg.Out, 2, 4, 2, ' ', 0)
	header := "graph"
	for _, p := range cfg.Ps {
		header += fmt.Sprintf("\tp=%d stage I\tp=%d stage II", p, p)
	}
	fmt.Fprintln(tw, header)
	var rows [][]string
	for di, d := range cfg.Datasets {
		row := d.Notation
		for pi, p := range cfg.Ps {
			st := stats[di*len(cfg.Ps)+pi]
			row += fmt.Sprintf("\t%.2f\t%.2f", st.AvgDegreeStage1(), st.AvgDegreeStage2())
			rows = append(rows, []string{d.Notation, strconv.Itoa(p),
				fmt.Sprintf("%.3f", st.AvgDegreeStage1()),
				fmt.Sprintf("%.3f", st.AvgDegreeStage2())})
		}
		fmt.Fprintln(tw, row)
	}
	if err := tw.Flush(); err != nil {
		return fmt.Errorf("harness: flushing table6: %w", err)
	}
	return writeCSV(cfg, "table6.csv",
		[]string{"dataset", "p", "avg_degree_stage1", "avg_degree_stage2"}, rows)
}

// RunTiming renders the partitioning wall-clock of the Fig. 8 cells at one
// partition count — the runtime counterpart of Section III.E's complexity
// discussion (the paper reports no times; this table quantifies the
// TLP-vs-METIS trade the paper describes qualitatively). With Workers > 1
// the seconds include contention between concurrent cells; run with
// Workers=1 when clean per-cell numbers are needed.
func RunTiming(cfg Config, p int) error {
	cfg = cfg.withDefaults()
	results, err := runGrid(cfg, fig8Families, []int{p}, measured)
	if err != nil {
		return err
	}
	fmt.Fprintf(cfg.Out, "\nTIMING (p=%d): partitioning seconds by algorithm\n", p)
	tw := tabwriter.NewWriter(cfg.Out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, familyHeader(fig8Families))
	var rows [][]string
	for di, d := range cfg.Datasets {
		row := d.Notation
		for fi := range fig8Families {
			res := results[di*len(fig8Families)+fi]
			row += fmt.Sprintf("\t%.3f", res.Seconds)
			rows = append(rows, []string{d.Notation, res.Algorithm,
				strconv.Itoa(p), fmt.Sprintf("%.4f", res.Seconds)})
		}
		fmt.Fprintln(tw, row)
	}
	if err := tw.Flush(); err != nil {
		return fmt.Errorf("harness: flushing timing: %w", err)
	}
	return writeCSV(cfg, fmt.Sprintf("timing_p%d.csv", p),
		[]string{"dataset", "algorithm", "p", "seconds"}, rows)
}

// familyHeader is the header row of a table with one column per family.
func familyHeader(fams []family) string {
	header := "graph"
	for _, f := range fams {
		header += "\t" + f.name
	}
	return header
}

// graphCache memoises Dataset.Generate results so the harness entry points
// share one build per (dataset, seed) instead of regenerating the nine
// graphs for every experiment. Graphs are immutable and a deterministic
// function of the key, so sharing is safe; the per-entry once lets distinct
// datasets generate concurrently while concurrent requests for the same
// dataset build it exactly once.
var graphCache = struct {
	sync.Mutex
	entries map[graphCacheKey]*graphCacheEntry
}{entries: map[graphCacheKey]*graphCacheEntry{}}

type graphCacheKey struct {
	seed               uint64
	notation, family   string
	vertices, numEdges int
}

type graphCacheEntry struct {
	once sync.Once
	g    *graph.Graph
}

func cachedGenerate(d gen.Dataset, seed uint64) *graph.Graph {
	key := graphCacheKey{
		seed: seed, notation: d.Notation, family: d.Family,
		vertices: d.Vertices, numEdges: d.Edges,
	}
	graphCache.Lock()
	e, ok := graphCache.entries[key]
	if !ok {
		e = &graphCacheEntry{}
		graphCache.entries[key] = e
	}
	graphCache.Unlock()
	e.once.Do(func() { e.g = d.Generate(seed) })
	return e.g
}

// generateAll builds (or fetches from cache) every configured dataset, with
// distinct datasets generating concurrently on the worker pool.
func generateAll(cfg Config) map[string]*graph.Graph {
	gs := parallel.Map(len(cfg.Datasets), cfg.Workers, func(i int) *graph.Graph {
		return cachedGenerate(cfg.Datasets[i], cfg.Seed)
	})
	graphs := make(map[string]*graph.Graph, len(cfg.Datasets))
	for i, d := range cfg.Datasets {
		graphs[d.Notation] = gs[i]
	}
	return graphs
}

func writeCSV(cfg Config, name string, header []string, rows [][]string) (err error) {
	if cfg.CSVDir == "" {
		return nil
	}
	if err := os.MkdirAll(cfg.CSVDir, 0o755); err != nil {
		return fmt.Errorf("harness: creating %s: %w", cfg.CSVDir, err)
	}
	path := filepath.Join(cfg.CSVDir, name)
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("harness: creating %s: %w", path, err)
	}
	defer func() {
		if cerr := f.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("harness: closing %s: %w", path, cerr)
		}
	}()
	w := csv.NewWriter(f)
	if err := w.Write(header); err != nil {
		return fmt.Errorf("harness: writing %s: %w", path, err)
	}
	if err := w.WriteAll(rows); err != nil {
		return fmt.Errorf("harness: writing %s: %w", path, err)
	}
	w.Flush()
	if err := w.Error(); err != nil {
		return fmt.Errorf("harness: flushing %s: %w", path, err)
	}
	return nil
}
