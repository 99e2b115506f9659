// Command tlp partitions a graph with any algorithm in the library and
// reports the paper's quality metrics.
//
// Usage:
//
//	tlp -input graph.txt -algo tlp -p 10
//	tlp -dataset G3 -algo metis -p 15 -seed 7
//	tlp -dataset G1 -algo tlpr -r 0.4 -p 10
//	tlp -input big.txt.gz -algo tlpsw -p 16 -stream -window 50000
//	tlp -dataset G2 -algo tlp -p 10 -run pagerank
//
// The input is either an edge-list file (-input; SNAP format, ".gz" allowed)
// or one of the built-in synthetic datasets (-dataset G1..G9).
//
// With -run pagerank|cc the partitioning is handed to the share-nothing GAS
// runtime, which executes the vertex program and reports the
// synchronisation traffic the partitioning cost (messages and wire bytes by
// kind) next to the quality metrics. -supersteps bounds the run.
//
// With -stream the graph is never materialised as a CSR: the input becomes
// an EdgeSource (file-backed for -input, generator-backed for -dataset), the
// algorithm must implement StreamPartitioner (tlpsw and the edge
// streamers random, dbh, greedy, hdrf; the vertex streamers ldg and fennel
// need the whole graph), quality metrics are computed by a second streaming
// pass, and the report includes the live-heap growth measured around the
// run. -window bounds the resident window for tlpsw; -dense interns sparse
// vertex ids in file inputs.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"

	graphpart "github.com/graphpart/graphpart"
)

func main() {
	// A -transport tcp run re-executes this binary once per machine; those
	// children must divert into the worker protocol before anything else.
	if graphpart.MaybeWorker() {
		return
	}
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "tlp:", err)
		os.Exit(1)
	}
}

// algoNames lists every -algo value: the sorted AllPartitioners keys, then
// tlpr, the one family built from its own flag (-r).
func algoNames() []string {
	all := graphpart.AllPartitioners(0)
	names := make([]string, 0, len(all)+1)
	for n := range all {
		names = append(names, n) //lint:ignore GL001 sorted on the next line
	}
	sort.Strings(names)
	return append(names, "tlpr")
}

func run() error {
	var (
		input    = flag.String("input", "", "edge-list file (SNAP format; .gz ok)")
		dataset  = flag.String("dataset", "", "built-in dataset notation (G1..G9)")
		algo     = flag.String("algo", "tlp", "algorithm: "+strings.Join(algoNames(), "|"))
		p        = flag.Int("p", 10, "number of partitions")
		r        = flag.Float64("r", 0.5, "stage ratio for -algo tlpr")
		seed     = flag.Uint64("seed", 42, "random seed")
		stats    = flag.Bool("stats", false, "print TLP stage statistics (tlp/tlpr only)")
		doRef    = flag.Bool("refine", false, "run the replica-consolidation refinement pass after partitioning")
		report   = flag.String("report", "", "write a detailed per-partition report: 'text' or 'json'")
		stream   = flag.Bool("stream", false, "out-of-core mode: partition from an EdgeSource without building a CSR (random, dbh, greedy, hdrf and tlpsw only)")
		winSize  = flag.Int("window", 0, "with -stream -algo tlpsw: bound on resident unassigned edges (0 = default)")
		dense    = flag.Bool("dense", false, "with -stream -input: intern sparse vertex ids instead of assuming 0..maxID")
		runProg  = flag.String("run", "", "execute a vertex program on the partitioning: 'pagerank' or 'cc'")
		maxSS    = flag.Int("supersteps", 20, "with -run: superstep bound for the vertex program")
		trans    = flag.String("transport", "mem", "with -run: 'mem' (every machine in this process) or 'tcp' (one OS process per machine over TCP sockets, as graphd's \"cluster\" transport)")
		traceOut = flag.String("trace", "", "write a Chrome trace-event file of the run (load at chrome://tracing)")
		metrics  = flag.String("metrics", "", "write a JSON metrics snapshot of the run")
		pprof    = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. :6060)")
	)
	flag.Parse()

	if *pprof != "" {
		startPprof(*pprof)
	}
	// -trace / -metrics opt into telemetry for the run; the exports are
	// written after the run body completes, whatever path it took.
	if *traceOut != "" || *metrics != "" {
		graphpart.EnableTelemetry()
	}
	ct, err := runBody(*input, *dataset, *algo, *p, *r, *seed,
		*stats, *doRef, *report, *stream, *winSize, *dense, *runProg, *maxSS, *trans)
	if err != nil {
		return err
	}
	return writeTelemetry(*traceOut, *metrics, ct)
}

// runBody is the CLI body behind the flags: load, partition, report,
// optionally hand off to the engine or the streaming path. The returned
// ClusterTelemetry is non-nil only for a traced -transport tcp run.
func runBody(input, dataset, algo string, p int, r float64, seed uint64,
	stats, doRef bool, report string, stream bool, winSize int, dense bool,
	runProg string, maxSS int, transport string) (*graphpart.ClusterTelemetry, error) {
	// A bad choice fails here, before any graph is loaded or partitioned.
	switch {
	case runProg != "" && !slices.Contains([]string{"pagerank", "cc"}, strings.ToLower(runProg)):
		return nil, fmt.Errorf("unknown program %q (pagerank or cc)", runProg)
	case transport != "mem" && transport != "tcp":
		return nil, fmt.Errorf("unknown transport %q (mem or tcp)", transport)
	case report != "" && report != "text" && report != "json":
		return nil, fmt.Errorf("unknown report format %q (text or json)", report)
	}
	if stream {
		if runProg != "" {
			return nil, fmt.Errorf("-run needs a materialised graph and cannot be combined with -stream")
		}
		return nil, runStream(os.Stdout, input, dataset, strings.ToLower(algo), p, seed, winSize, dense)
	}

	g, err := loadGraph(input, dataset, seed)
	if err != nil {
		return nil, err
	}
	fmt.Printf("graph: %s\n", graphpart.ComputeGraphStats(g))

	watch := graphpart.StartWatch()
	var a *graphpart.Assignment
	var tlpStats *graphpart.TLPStats
	switch strings.ToLower(algo) {
	case "tlpr":
		pt, err := graphpart.NewTLPR(r, graphpart.TLPOptions{Seed: seed})
		if err != nil {
			return nil, err
		}
		var st graphpart.TLPStats
		a, st, err = pt.PartitionStats(g, p)
		if err != nil {
			return nil, err
		}
		tlpStats = &st
	case "tlp":
		pt := graphpart.NewTLP(graphpart.TLPOptions{Seed: seed})
		var st graphpart.TLPStats
		a, st, err = pt.PartitionStats(g, p)
		if err != nil {
			return nil, err
		}
		tlpStats = &st
	default:
		pt, ok := graphpart.AllPartitioners(seed)[strings.ToLower(algo)]
		if !ok {
			return nil, fmt.Errorf("unknown algorithm %q (have: %s)", algo, strings.Join(algoNames(), ", "))
		}
		a, err = pt.Partition(g, p)
		if err != nil {
			return nil, err
		}
	}
	elapsed := watch.Elapsed()

	if doRef {
		rs, err := graphpart.Refine(g, a, graphpart.RefineOptions{})
		if err != nil {
			return nil, err
		}
		fmt.Printf("refine: %d passes, %d moves (%d edges), %d swaps, %d replicas removed, RF %.4f -> %.4f\n",
			rs.Passes, rs.Moves, rs.EdgesMoved, rs.Swaps, rs.ReplicasRemoved, rs.RFBefore, rs.RFAfter)
	}

	m, err := graphpart.ComputeMetrics(g, a)
	if err != nil {
		return nil, err
	}
	fmt.Printf("algorithm: %s  p=%d  time=%v\n", algo, p, elapsed.Round(time.Millisecond))
	fmt.Printf("replication factor: %.4f\n", m.ReplicationFactor)
	fmt.Printf("balance: %.4f (loads %d..%d, capacity %d)\n",
		m.Balance, m.MinLoad, m.MaxLoad, graphpart.Capacity(g.NumEdges(), p))
	fmt.Printf("spanned vertices: %d of %d\n", m.SpannedVertices, g.NumVertices())
	finite, inf := 0, 0
	minMod, maxMod := math.Inf(1), math.Inf(-1)
	for _, mod := range m.Modularity {
		if math.IsInf(mod, 1) {
			inf++
			continue
		}
		finite++
		if mod < minMod {
			minMod = mod
		}
		if mod > maxMod {
			maxMod = mod
		}
	}
	if finite > 0 {
		fmt.Printf("partition modularity: min %.3f, max %.3f (%d isolated partitions)\n", minMod, maxMod, inf)
	}
	if report != "" {
		rep, err := graphpart.BuildReport(g, a)
		if err != nil {
			return nil, err
		}
		if report == "json" {
			if err := rep.WriteJSON(os.Stdout); err != nil {
				return nil, err
			}
		} else if err := rep.WriteText(os.Stdout); err != nil {
			return nil, err
		}
	}
	if stats && tlpStats != nil {
		fmt.Printf("stage I selections: %d (avg degree %.2f)\n",
			tlpStats.Stage1Selections, tlpStats.AvgDegreeStage1())
		fmt.Printf("stage II selections: %d (avg degree %.2f)\n",
			tlpStats.Stage2Selections, tlpStats.AvgDegreeStage2())
		fmt.Printf("reseeds: %d  partial absorptions: %d  swept edges: %d\n",
			tlpStats.Reseeds, tlpStats.PartialAbsorptions, tlpStats.SweptEdges)
	}
	if runProg != "" {
		return runEngine(os.Stdout, g, a, strings.ToLower(runProg), maxSS, transport)
	}
	return nil, nil
}

// writeTelemetry exports the recorded trace and metrics to the requested
// files; empty paths are skipped. A non-nil ClusterTelemetry upgrades the
// trace export to the merged multi-process form (one lane per worker plus
// the coordinator, with barrier-skew instants).
func writeTelemetry(tracePath, metricsPath string, ct *graphpart.ClusterTelemetry) error {
	write := func(path string, fn func(io.Writer) error) error {
		if path == "" {
			return nil
		}
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := fn(f); err != nil {
			_ = f.Close()
			return err
		}
		return f.Close()
	}
	traceFn := graphpart.WriteChromeTrace
	if ct != nil {
		traceFn = ct.WriteChromeTrace
	}
	if err := write(tracePath, traceFn); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	if err := write(metricsPath, graphpart.WriteMetricsJSON); err != nil {
		return fmt.Errorf("writing metrics: %w", err)
	}
	return nil
}

// runEngine executes a vertex program on the share-nothing GAS runtime over
// the just-produced partitioning and reports the synchronisation traffic it
// generated — the downstream cost the replication factor predicts. With
// transport "tcp" the run is a real cluster — one OS process per machine
// over sockets — verified bit-identical against the sequential oracle, and
// the returned ClusterTelemetry (non-nil only when telemetry is on) carries
// every worker's spans for the merged trace export.
func runEngine(out io.Writer, g *graphpart.Graph, a *graphpart.Assignment, prog string, maxSupersteps int, transport string) (*graphpart.ClusterTelemetry, error) {
	mkProg := func() (graphpart.Program, error) {
		switch prog {
		case "pagerank":
			return graphpart.NewPageRank(g.NumVertices(), 0.85, 1e-9), nil
		case "cc":
			return graphpart.NewComponents(), nil
		default:
			return nil, fmt.Errorf("unknown program %q (pagerank or cc)", prog)
		}
	}
	pr, err := mkProg()
	if err != nil {
		return nil, err
	}

	var (
		values  []float64
		st      graphpart.EngineStats
		ct      *graphpart.ClusterTelemetry
		elapsed time.Duration
	)
	switch transport {
	case "mem":
		e, err := graphpart.NewEngine(g, a)
		if err != nil {
			return nil, err
		}
		watch := graphpart.StartWatch()
		values, st, err = e.Run(pr, maxSupersteps)
		if err != nil {
			return nil, err
		}
		elapsed = watch.Elapsed()
		fmt.Fprintf(out, "\nengine: %s on %d machines  rf=%.4f  time=%v\n",
			pr.Name(), a.P(), e.ReplicationFactor(), elapsed.Round(time.Millisecond))
	case "tcp":
		watch := graphpart.StartWatch()
		values, st, ct, err = graphpart.RunClusterTraced(g, a, pr, maxSupersteps)
		if err != nil {
			return nil, err
		}
		elapsed = watch.Elapsed()
		fmt.Fprintf(out, "\nengine: %s on %d machines (one process per machine, tcp)  time=%v\n",
			pr.Name(), a.P(), elapsed.Round(time.Millisecond))
		seqProg, err := mkProg()
		if err != nil {
			return nil, err
		}
		seqVals, _, err := graphpart.RunSequential(g, seqProg, maxSupersteps)
		if err != nil {
			return nil, fmt.Errorf("sequential verify: %w", err)
		}
		for v := range seqVals {
			if values[v] != seqVals[v] {
				return nil, fmt.Errorf("cluster diverged from sequential at vertex %d: %v != %v",
					v, values[v], seqVals[v])
			}
		}
		fmt.Fprintf(out, "sequential verify: exact bit-level match across %d vertices\n", len(seqVals))
		if ct != nil {
			skews := ct.BarrierSkew()
			var maxSkew time.Duration
			for _, sk := range skews {
				if d := time.Duration(sk.SkewNanos); d > maxSkew {
					maxSkew = d
				}
			}
			fmt.Fprintf(out, "cluster telemetry: %d worker snapshots, max barrier skew %v over %d supersteps\n",
				len(ct.Workers), maxSkew, len(skews))
		}
	default:
		return nil, fmt.Errorf("unknown transport %q (mem or tcp)", transport)
	}
	fmt.Fprintf(out, "supersteps: %d (bound %d)\n", st.Supersteps, maxSupersteps)
	fmt.Fprintf(out, "messages: %d gather + %d apply + %d activate = %d\n",
		st.GatherMessages, st.ApplyMessages, st.ActivateMessages, st.Messages())
	fmt.Fprintf(out, "wire bytes: %d (%.2f MB)\n", st.Bytes(), float64(st.Bytes())/1e6)
	switch prog {
	case "pagerank":
		type ranked struct {
			v    int
			rank float64
		}
		top := make([]ranked, 0, len(values))
		for v, r := range values {
			top = append(top, ranked{v, r})
		}
		sort.Slice(top, func(i, j int) bool {
			if top[i].rank != top[j].rank {
				return top[i].rank > top[j].rank
			}
			return top[i].v < top[j].v
		})
		if len(top) > 5 {
			top = top[:5]
		}
		fmt.Fprintf(out, "top ranks:")
		for _, t := range top {
			fmt.Fprintf(out, "  v%d=%.6f", t.v, t.rank)
		}
		fmt.Fprintln(out)
	case "cc":
		labels := make(map[float64]struct{}, 16)
		for _, l := range values {
			labels[l] = struct{}{}
		}
		fmt.Fprintf(out, "connected components: %d\n", len(labels))
	}
	return ct, nil
}

// runStream is the -stream mode: it partitions straight from an EdgeSource —
// no CSR is ever built — and reports quality from a second streaming pass,
// plus the live-heap growth around the run as the bounded-memory evidence.
func runStream(out io.Writer, input, dataset, algo string, p int, seed uint64, winSize int, dense bool) error {
	src, err := openSource(input, dataset, seed, dense)
	if err != nil {
		return err
	}
	if c, ok := src.(io.Closer); ok {
		defer func() { _ = c.Close() }()
	}
	fmt.Fprintf(out, "source: %d vertices, %d edges (streaming, no CSR)\n",
		src.NumVertices(), src.NumEdges())

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)

	watch := graphpart.StartWatch()
	var a *graphpart.Assignment
	var wstats *graphpart.WindowStats
	if algo == "tlpsw" {
		sw := graphpart.NewSlidingTLP(graphpart.SlidingWindowConfig{Seed: seed, WindowEdges: winSize})
		var st graphpart.WindowStats
		a, st, err = sw.PartitionStreamStats(src, p)
		if err != nil {
			return err
		}
		wstats = &st
	} else {
		all := graphpart.AllPartitioners(seed)
		pt, ok := all[algo]
		if !ok {
			return fmt.Errorf("unknown algorithm %q", algo)
		}
		sp, ok := pt.(graphpart.StreamPartitioner)
		if !ok {
			return fmt.Errorf("algorithm %q needs the whole graph in memory and cannot run with -stream", algo)
		}
		a, err = sp.PartitionStream(src, p)
		if err != nil {
			return err
		}
	}
	elapsed := watch.Elapsed()

	runtime.GC()
	runtime.ReadMemStats(&after)
	liveMiB := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / (1 << 20)

	m, err := graphpart.StreamMetrics(src, a)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "algorithm: %s  p=%d  time=%v\n", algo, p, elapsed.Round(time.Millisecond))
	fmt.Fprintf(out, "replication factor: %.4f\n", m.ReplicationFactor)
	fmt.Fprintf(out, "balance: %.4f (loads %d..%d, capacity %d)\n",
		m.Balance, m.MinLoad, m.MaxLoad, graphpart.Capacity(src.NumEdges(), p))
	fmt.Fprintf(out, "spanned vertices: %d of %d\n", m.SpannedVertices, src.NumVertices())
	if wstats != nil {
		fmt.Fprintf(out, "window: peak %d edges resident, %d refills, %d streamed, %d swept\n",
			wstats.PeakWindowEdges, wstats.Refills, wstats.StreamedEdges, wstats.SweptEdges)
	}
	fmt.Fprintf(out, "live heap growth: %.1f MiB (assignment + partitioner state; the edge set stayed on disk)\n", liveMiB)
	return nil
}

// openSource builds the -stream EdgeSource: file-backed for -input,
// generator-backed for -dataset.
func openSource(input, dataset string, seed uint64, dense bool) (graphpart.EdgeSource, error) {
	switch {
	case input != "" && dataset != "":
		return nil, fmt.Errorf("use -input or -dataset, not both")
	case input != "":
		return graphpart.OpenEdgeListSource(input, graphpart.FileSourceConfig{DenseIDs: dense})
	case dataset != "":
		d, err := graphpart.DatasetByNotation(dataset)
		if err != nil {
			return nil, err
		}
		return graphpart.NewDatasetSource(d, seed), nil
	default:
		return nil, fmt.Errorf("need -input FILE or -dataset G1..G9")
	}
}

func loadGraph(input, dataset string, seed uint64) (*graphpart.Graph, error) {
	switch {
	case input != "" && dataset != "":
		return nil, fmt.Errorf("use -input or -dataset, not both")
	case input != "":
		g, _, err := graphpart.LoadEdgeList(input)
		return g, err
	case dataset != "":
		d, err := graphpart.DatasetByNotation(dataset)
		if err != nil {
			return nil, err
		}
		return d.Generate(seed), nil
	default:
		return nil, fmt.Errorf("need -input FILE or -dataset G1..G9")
	}
}
