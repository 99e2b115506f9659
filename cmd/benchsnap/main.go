// Command benchsnap measures the performance and quality of every
// (dataset, algorithm, p) cell of the paper's evaluation grid and writes a
// machine-diffable JSON snapshot. The committed BENCH_baseline.json is the
// reference every later performance PR is judged against: rerun benchsnap on
// the changed tree and diff seconds/allocs cell by cell.
//
// Usage:
//
//	benchsnap                          # full grid -> BENCH_baseline.json
//	benchsnap -quick -out /tmp/b.json  # ~10% scale datasets, seconds
//	benchsnap -datasets G1,G2 -ps 10   # restrict the grid
//	benchsnap -net                     # Mem-vs-TCP probe -> BENCH_net.json
//	benchsnap -cluster-obs             # cluster telemetry overhead -> BENCH_cluster_obs.json
//
// Cells run strictly sequentially so per-cell seconds and allocation deltas
// are not distorted by concurrent cells. The snapshot additionally times the
// fig8 harness end to end at Workers=1 versus Workers=N (the parallel
// execution layer) and records the speedup.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"github.com/graphpart/graphpart/internal/engine"
	"github.com/graphpart/graphpart/internal/gen"
	"github.com/graphpart/graphpart/internal/graph"
	"github.com/graphpart/graphpart/internal/harness"
	"github.com/graphpart/graphpart/internal/obs"
	"github.com/graphpart/graphpart/internal/parallel"
	"github.com/graphpart/graphpart/internal/partition"
	"github.com/graphpart/graphpart/internal/wire"
)

// Cell is one sequentially-measured grid entry.
type Cell struct {
	Dataset    string  `json:"dataset"`
	Algorithm  string  `json:"algorithm"`
	P          int     `json:"p"`
	Seconds    float64 `json:"seconds"`
	RF         float64 `json:"rf"`
	Balance    float64 `json:"balance"`
	AllocBytes uint64  `json:"alloc_bytes"`
	Mallocs    uint64  `json:"mallocs"`
}

// HarnessTiming compares the fig8 experiment wall-clock with and without the
// parallel execution layer.
type HarnessTiming struct {
	Experiment        string  `json:"experiment"`
	Workers           int     `json:"workers"`
	SequentialSeconds float64 `json:"sequential_seconds"`
	ParallelSeconds   float64 `json:"parallel_seconds"`
	Speedup           float64 `json:"speedup"`
}

// ObsSummary is the telemetry-derived phase breakdown of one traced
// (dataset, p) probe: where TLP spends its time (Stage I vs Stage II
// growth) and the superstep latency distribution of the GAS engine running
// PageRank on the resulting partitioning. It complements the grid cells —
// those say how long a run took, this says where the time went.
type ObsSummary struct {
	Dataset            string            `json:"dataset"`
	P                  int               `json:"p"`
	TLPStage1Seconds   float64           `json:"tlp_stage1_seconds"`
	TLPStage2Seconds   float64           `json:"tlp_stage2_seconds"`
	TLPStage1Share     float64           `json:"tlp_stage1_share"`
	EngineSuperstepP50 float64           `json:"engine_superstep_p50_seconds"`
	EngineSuperstepP95 float64           `json:"engine_superstep_p95_seconds"`
	Spans              []obs.SpanSummary `json:"spans"`
}

// Snapshot is the JSON document benchsnap writes.
type Snapshot struct {
	GOOS        string        `json:"goos"`
	GOARCH      string        `json:"goarch"`
	NumCPU      int           `json:"num_cpu"`
	GOMAXPROCS  int           `json:"gomaxprocs"`
	GoVersion   string        `json:"go_version"`
	Seed        uint64        `json:"seed"`
	Quick       bool          `json:"quick"`
	GeneratedAt string        `json:"generated_at"`
	Cells       []Cell        `json:"cells"`
	Harness     HarnessTiming `json:"harness"`
	Obs         *ObsSummary   `json:"obs,omitempty"`
}

func main() {
	// The -cluster-obs probe re-execs this binary once per machine; worker
	// processes must take over before flag parsing.
	if wire.MaybeWorker() {
		return
	}
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchsnap:", err)
		os.Exit(1)
	}
}

func run(args []string, logw io.Writer) error {
	fs := flag.NewFlagSet("benchsnap", flag.ContinueOnError)
	var (
		out     = fs.String("out", "BENCH_baseline.json", "output JSON path")
		seed    = fs.Uint64("seed", 42, "random seed for datasets and algorithms")
		quick   = fs.Bool("quick", false, "use ~10% scale datasets (seconds instead of minutes)")
		only    = fs.String("datasets", "", "comma-separated dataset notations to restrict to (e.g. G1,G2)")
		psFlag  = fs.String("ps", "", "comma-separated partition counts (default 10,15,20; 4,6,8 with -quick)")
		workers = fs.Int("workers", 0, "worker count for the parallel harness timing (0 = GRAPHPART_WORKERS or GOMAXPROCS)")
		skipFig = fs.Bool("skip-harness", false, "skip the fig8 sequential-vs-parallel harness timing")
		obsOut  = fs.String("obs-out", "", "also write the telemetry phase summary to this JSON file (e.g. BENCH_obs.json)")
		pprof   = fs.String("pprof", "", "serve net/http/pprof on this address (e.g. :6060)")

		stage1Out      = fs.String("stage1-out", "", "write the stage-I kernel probe to this JSON file (e.g. BENCH_stage1.json)")
		stage1Only     = fs.Bool("stage1-only", false, "run only the stage-I probe (skip grid, harness and obs probes); requires -stage1-out")
		stage1Dataset  = fs.String("stage1-dataset", "G1", "dataset notation for the stage-I probe")
		stage1P        = fs.Int("stage1-p", 10, "partition count for the stage-I probe")
		stage1Baseline = fs.String("stage1-baseline", "BENCH_obs.json", "committed obs snapshot to compare the stage-I probe against")

		netFlag    = fs.Bool("net", false, "run only the transport probe (PageRank over Mem vs TCP) and write -net-out")
		netOut     = fs.String("net-out", "BENCH_net.json", "output JSON path for the -net probe")
		netDataset = fs.String("net-dataset", "G1", "dataset notation for the -net probe")
		netPs      = fs.String("net-ps", "2,8", "comma-separated partition counts for the -net probe")

		clusterObsFlag    = fs.Bool("cluster-obs", false, "run only the cluster-telemetry overhead probe (process-per-machine PageRank, telemetry off vs on) and write -cluster-obs-out")
		clusterObsOut     = fs.String("cluster-obs-out", "BENCH_cluster_obs.json", "output JSON path for the -cluster-obs probe")
		clusterObsDataset = fs.String("cluster-obs-dataset", "G1", "dataset notation for the -cluster-obs probe")
		clusterObsPs      = fs.String("cluster-obs-ps", "2,8", "comma-separated partition counts for the -cluster-obs probe")
		clusterObsSteps   = fs.Int("cluster-obs-steps", 20, "superstep budget for the -cluster-obs probe")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *pprof != "" {
		startPprof(*pprof)
	}
	if *stage1Only && *stage1Out == "" {
		return fmt.Errorf("-stage1-only requires -stage1-out")
	}
	if *stage1Only {
		return runStage1Probe(*stage1Dataset, *seed, *stage1P, *stage1Out, *stage1Baseline, logw)
	}
	if *netFlag {
		ps, err := parseNetPs(*netPs)
		if err != nil {
			return err
		}
		return runNetProbe(*netDataset, *seed, ps, *netOut, logw)
	}
	if *clusterObsFlag {
		ps, err := parseNetPs(*clusterObsPs)
		if err != nil {
			return err
		}
		return runClusterObsProbe(*clusterObsDataset, *seed, ps, *clusterObsSteps, *clusterObsOut, logw)
	}
	datasets := gen.Datasets()
	ps := []int{10, 15, 20}
	if *quick {
		datasets = gen.SmallDatasets()
		ps = []int{4, 6, 8}
	}
	if *only != "" {
		var keep []gen.Dataset
		for _, want := range strings.Split(*only, ",") {
			want = strings.TrimSpace(want)
			found := false
			for _, d := range datasets {
				if d.Notation == want {
					keep = append(keep, d)
					found = true
					break
				}
			}
			if !found {
				return fmt.Errorf("unknown dataset %q", want)
			}
		}
		datasets = keep
	}
	if *psFlag != "" {
		ps = ps[:0]
		for _, s := range strings.Split(*psFlag, ",") {
			p, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil || p < 1 {
				return fmt.Errorf("bad partition count %q", s)
			}
			ps = append(ps, p)
		}
	}

	snap := Snapshot{
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		NumCPU:      runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		GoVersion:   runtime.Version(),
		Seed:        *seed,
		Quick:       *quick,
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
	}

	fmt.Fprintf(logw, "generating %d datasets (seed %d)...\n", len(datasets), *seed)
	built := harnessGraphs(datasets, *seed)

	algs := harness.Algorithms(*seed)
	for _, p := range ps {
		for _, d := range datasets {
			g := built[d.Notation]
			for ai := range algs {
				// A fresh roster per cell: partitioners are cheap to
				// construct and this mirrors the parallel harness.
				alg := harness.Algorithms(*seed)[ai]
				runtime.GC()
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				start := time.Now()
				a, err := alg.Partition(g, p)
				elapsed := time.Since(start).Seconds()
				if err != nil {
					return fmt.Errorf("%s on %s p=%d: %w", alg.Name(), d.Notation, p, err)
				}
				runtime.ReadMemStats(&after)
				m, err := partition.Compute(g, a)
				if err != nil {
					return fmt.Errorf("metrics for %s on %s p=%d: %w", alg.Name(), d.Notation, p, err)
				}
				snap.Cells = append(snap.Cells, Cell{
					Dataset:    d.Notation,
					Algorithm:  alg.Name(),
					P:          p,
					Seconds:    elapsed,
					RF:         m.ReplicationFactor,
					Balance:    m.Balance,
					AllocBytes: after.TotalAlloc - before.TotalAlloc,
					Mallocs:    after.Mallocs - before.Mallocs,
				})
				fmt.Fprintf(logw, "%s %s p=%d: %.3fs RF=%.3f\n", d.Notation, alg.Name(), p, elapsed, m.ReplicationFactor)
			}
		}
	}

	if !*skipFig {
		w := parallel.Workers(*workers)
		fmt.Fprintf(logw, "timing fig8 harness: Workers=1 vs Workers=%d...\n", w)
		seqSecs, err := timeFig8(datasets, ps, *seed, 1)
		if err != nil {
			return err
		}
		parSecs, err := timeFig8(datasets, ps, *seed, w)
		if err != nil {
			return err
		}
		snap.Harness = HarnessTiming{
			Experiment:        "fig8",
			Workers:           w,
			SequentialSeconds: seqSecs,
			ParallelSeconds:   parSecs,
			Speedup:           seqSecs / parSecs,
		}
		fmt.Fprintf(logw, "fig8: %.2fs sequential, %.2fs with %d workers (%.2fx)\n",
			seqSecs, parSecs, w, snap.Harness.Speedup)
	}

	// Telemetry probe last, so enabling spans cannot leak into the grid
	// cells' timings above.
	if len(datasets) > 0 && len(ps) > 0 {
		d := datasets[0]
		sum, err := collectObs(built[d.Notation], d.Notation, *seed, ps[0])
		if err != nil {
			return err
		}
		snap.Obs = sum
		fmt.Fprintf(logw, "obs probe %s p=%d: stage1 %.1f%% of growth, superstep p95 %.4fs\n",
			d.Notation, ps[0], 100*sum.TLPStage1Share, sum.EngineSuperstepP95)
		if *obsOut != "" {
			if err := writeJSON(*obsOut, sum); err != nil {
				return err
			}
			fmt.Fprintf(logw, "wrote %s\n", *obsOut)
		}
	}

	if *stage1Out != "" {
		if err := runStage1Probe(*stage1Dataset, *seed, *stage1P, *stage1Out, *stage1Baseline, logw); err != nil {
			return err
		}
	}

	if err := writeJSON(*out, snap); err != nil {
		return err
	}
	fmt.Fprintf(logw, "wrote %s (%d cells)\n", *out, len(snap.Cells))
	return nil
}

// stage1Repeats is how many traced runs the stage-I probe makes; the
// snapshot keeps the best stage-I time.
const stage1Repeats = 3

// runStage1Probe resolves the probe dataset, runs the traced probe
// stage1Repeats times and writes the Stage1Snapshot.
func runStage1Probe(dataset string, seed uint64, p int, out, baseline string, logw io.Writer) error {
	var probe *gen.Dataset
	for _, d := range append(gen.Datasets(), gen.SmallDatasets()...) {
		if d.Notation == dataset {
			d := d
			probe = &d
			break
		}
	}
	if probe == nil {
		return fmt.Errorf("unknown stage1 dataset %q", dataset)
	}
	fmt.Fprintf(logw, "stage1 probe: %s p=%d, %d runs...\n", dataset, p, stage1Repeats)
	snap, err := collectStage1(probe.Generate(seed), dataset, seed, p, stage1Repeats, baseline)
	if err != nil {
		return err
	}
	for _, r := range snap.Runs {
		fmt.Fprintf(logw, "  stage1 %.4fs (compact %.4fs, intersect %.4fs) hash %s\n",
			r.Stage1Seconds, r.CompactSeconds, r.IntersectSeconds, r.PartitionHash)
	}
	if snap.BaselineStage1Seconds > 0 {
		fmt.Fprintf(logw, "  best %.4fs vs baseline %.4fs: %.2fx\n",
			snap.BestStage1Seconds, snap.BaselineStage1Seconds, snap.SpeedupVsBaseline)
	}
	if err := writeJSON(out, snap); err != nil {
		return err
	}
	fmt.Fprintf(logw, "wrote %s\n", out)
	return nil
}

// collectObs traces one TLP partitioning of g plus a bounded PageRank run on
// the share-nothing engine, and distils the phase-level summary: TLP
// stage-1/stage-2 time share and engine superstep percentiles.
func collectObs(g *graph.Graph, dataset string, seed uint64, p int) (*ObsSummary, error) {
	obs.Enable()
	defer func() {
		obs.Disable()
		obs.ResetTrace()
		obs.Default.Reset()
	}()
	obs.ResetTrace()
	obs.Default.Reset()

	a, err := harness.Algorithms(seed)[0].Partition(g, p) // roster slot 0 is TLP
	if err != nil {
		return nil, fmt.Errorf("obs probe: TLP on %s p=%d: %w", dataset, p, err)
	}
	e, err := engine.New(g, a)
	if err != nil {
		return nil, fmt.Errorf("obs probe: engine on %s: %w", dataset, err)
	}
	if _, _, err := e.Run(engine.NewPageRank(g.NumVertices(), 0.85, 1e-9), 8); err != nil {
		return nil, fmt.Errorf("obs probe: pagerank on %s: %w", dataset, err)
	}

	recs, _ := obs.TraceRecords()
	sums := obs.SummarizeSpans(recs)
	out := &ObsSummary{Dataset: dataset, P: p, Spans: sums}
	for _, s := range sums {
		switch s.Name {
		case "tlp.stage1":
			out.TLPStage1Seconds = s.TotalSeconds
		case "tlp.stage2":
			out.TLPStage2Seconds = s.TotalSeconds
		case "engine.superstep":
			out.EngineSuperstepP50 = s.P50Seconds
			out.EngineSuperstepP95 = s.P95Seconds
		}
	}
	if growth := out.TLPStage1Seconds + out.TLPStage2Seconds; growth > 0 {
		out.TLPStage1Share = out.TLPStage1Seconds / growth
	}
	return out, nil
}

// writeJSON marshals v indented to path with a trailing newline.
func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	return os.WriteFile(path, data, 0o644)
}

// harnessGraphs generates every dataset once up front (sequentially, so
// generation time does not leak into the first cell's measurement).
func harnessGraphs(datasets []gen.Dataset, seed uint64) map[string]*graph.Graph {
	out := make(map[string]*graph.Graph, len(datasets))
	for _, d := range datasets {
		out[d.Notation] = d.Generate(seed)
	}
	return out
}

// timeFig8 runs the fig8 experiment end to end (dataset cache excluded —
// graphs are passed in pre-built) at the given worker count and returns
// wall-clock seconds.
func timeFig8(datasets []gen.Dataset, ps []int, seed uint64, workers int) (float64, error) {
	cfg := harness.Config{
		Seed:     seed,
		Datasets: datasets,
		Ps:       ps,
		Out:      io.Discard,
		Workers:  workers,
	}
	graphs, err := harness.RunTable3(cfg)
	if err != nil {
		return 0, err
	}
	start := time.Now()
	if _, err := harness.RunFig8(cfg, graphs); err != nil {
		return 0, err
	}
	return time.Since(start).Seconds(), nil
}
