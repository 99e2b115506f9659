package harness

import (
	"fmt"
	"strconv"
	"text/tabwriter"

	"github.com/graphpart/graphpart/internal/core"
	"github.com/graphpart/graphpart/internal/engine"
	"github.com/graphpart/graphpart/internal/graph"
	"github.com/graphpart/graphpart/internal/metis"
	"github.com/graphpart/graphpart/internal/obs"
	"github.com/graphpart/graphpart/internal/parallel"
	"github.com/graphpart/graphpart/internal/partition"
	"github.com/graphpart/graphpart/internal/streaming"
	"github.com/graphpart/graphpart/internal/window"
)

// engineRunner is one partitioner entry of the engine-comparison roster.
type engineRunner struct {
	name string
	// maxEdges bounds the cell (0 = unbounded); the quadratic flat-KL
	// baseline skips the large datasets, mirroring the ablation grid.
	maxEdges int
	make     func(seed uint64) partition.Partitioner
}

// engineRoster returns every registered partitioner for the downstream
// communication comparison, quality algorithms first.
func engineRoster() []engineRunner {
	return []engineRunner{
		{"TLP", 0, func(seed uint64) partition.Partitioner { return core.MustNew(core.Options{Seed: seed}) }},
		{"METIS", 0, func(seed uint64) partition.Partitioner { return metis.New(metis.Config{Seed: seed}) }},
		{"TLP-SW", 0, func(seed uint64) partition.Partitioner { return window.New(window.Config{Seed: seed}) }},
		{"KL(flat)", 150000, func(seed uint64) partition.Partitioner { return metis.NewFlatKL(metis.Config{Seed: seed}) }},
		{"HDRF", 0, func(seed uint64) partition.Partitioner { return streaming.NewHDRF(seed, streaming.OrderShuffled, 0) }},
		{"Greedy", 0, func(seed uint64) partition.Partitioner { return streaming.NewGreedy(seed, streaming.OrderShuffled) }},
		{"LDG", 0, func(seed uint64) partition.Partitioner { return streaming.NewLDG(seed, streaming.OrderShuffled) }},
		{"FENNEL", 0, func(seed uint64) partition.Partitioner { return streaming.NewFENNEL(seed, streaming.OrderShuffled, 0) }},
		{"DBH", 0, func(seed uint64) partition.Partitioner { return streaming.NewDBH(seed) }},
		{"Random", 0, func(seed uint64) partition.Partitioner { return streaming.NewRandom(seed) }},
	}
}

// engineProgram is one vertex program of the comparison, bounded so the
// grid measures synchronisation traffic, not convergence patience.
type engineProgram struct {
	name string
	make func(g *graph.Graph) engine.Program
	max  int
}

func enginePrograms() []engineProgram {
	return []engineProgram{
		{"pagerank", func(g *graph.Graph) engine.Program {
			return engine.NewPageRank(g.NumVertices(), 0.85, 1e-9)
		}, 8},
		{"components", func(g *graph.Graph) engine.Program {
			return &engine.Components{}
		}, 16},
	}
}

// EngineResult is one (dataset, algorithm, p, program) execution of the
// share-nothing runtime.
type EngineResult struct {
	Dataset    string
	Algorithm  string
	P          int
	Program    string
	RF         float64
	Supersteps int
	Messages   int64
	Bytes      int64
	// PartitionSeconds / RunSeconds split preprocessing from execution.
	PartitionSeconds float64
	RunSeconds       float64
	Skipped          bool
}

// RunEngineComparison executes vertex programs on the share-nothing GAS
// runtime over every registered partitioner on the standard datasets at one
// partition count, and emits engine_comm.csv — replication factor against
// actual synchronisation messages, wire bytes and wall-clock, the
// replication-factor-matters figure the paper argues from.
func RunEngineComparison(cfg Config, graphs map[string]*graph.Graph, p int) error {
	cfg = cfg.withDefaults()
	var err error
	if graphs == nil {
		graphs, err = generateAll(cfg)
		if err != nil {
			return err
		}
	}
	roster := engineRoster()
	programs := enginePrograms()
	// One cell = one (dataset, partitioner): partition once, then run
	// every program on the same engine. Cells fan out over the worker
	// pool; each returns one EngineResult per program.
	cells, err := parallel.MapErr(len(cfg.Datasets)*len(roster), cfg.Workers, func(i int) ([]EngineResult, error) {
		d := cfg.Datasets[i/len(roster)]
		r := roster[i%len(roster)]
		g := graphs[d.Notation]
		out := make([]EngineResult, len(programs))
		for pi := range out {
			out[pi] = EngineResult{Dataset: d.Notation, Algorithm: r.name, P: p, Program: programs[pi].name}
		}
		if r.maxEdges > 0 && g.NumEdges() > r.maxEdges {
			for pi := range out {
				out[pi].Skipped = true
			}
			return out, nil
		}
		watch := obs.StartWatch()
		a, err := r.make(cfg.Seed).Partition(g, p)
		if err != nil {
			return nil, fmt.Errorf("harness: engine comparison %s on %s: %w", r.name, d.Notation, err)
		}
		partSeconds := watch.Seconds()
		e, err := engine.New(g, a)
		if err != nil {
			return nil, fmt.Errorf("harness: engine build %s on %s: %w", r.name, d.Notation, err)
		}
		for pi, pr := range programs {
			watch = obs.StartWatch()
			_, stats, err := e.Run(pr.make(g), pr.max)
			if err != nil {
				return nil, fmt.Errorf("harness: engine run %s/%s on %s: %w", r.name, pr.name, d.Notation, err)
			}
			out[pi].RF = e.ReplicationFactor()
			out[pi].Supersteps = stats.Supersteps
			out[pi].Messages = stats.Messages()
			out[pi].Bytes = stats.Bytes()
			out[pi].PartitionSeconds = partSeconds
			out[pi].RunSeconds = watch.Seconds()
		}
		return out, nil
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(cfg.Out, "\nENGINE (p=%d): replication factor vs synchronisation traffic\n", p)
	tw := tabwriter.NewWriter(cfg.Out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "graph\talgorithm\trf\tprogram\tsteps\tmessages\tMB")
	var rows [][]string
	for _, cell := range cells {
		for _, res := range cell {
			if res.Skipped {
				rows = append(rows, []string{res.Dataset, res.Algorithm, strconv.Itoa(p), res.Program,
					"", "", "", "", "", ""})
				continue
			}
			fmt.Fprintf(tw, "%s\t%s\t%.3f\t%s\t%d\t%d\t%.2f\n",
				res.Dataset, res.Algorithm, res.RF, res.Program,
				res.Supersteps, res.Messages, float64(res.Bytes)/1e6)
			rows = append(rows, []string{res.Dataset, res.Algorithm, strconv.Itoa(p), res.Program,
				fmt.Sprintf("%.4f", res.RF), strconv.Itoa(res.Supersteps),
				strconv.FormatInt(res.Messages, 10), strconv.FormatInt(res.Bytes, 10),
				fmt.Sprintf("%.3f", res.PartitionSeconds), fmt.Sprintf("%.3f", res.RunSeconds)})
		}
	}
	if err := tw.Flush(); err != nil {
		return fmt.Errorf("harness: flushing engine comparison: %w", err)
	}
	return writeCSV(cfg, "engine_comm.csv",
		[]string{"dataset", "algorithm", "p", "program", "rf", "supersteps", "messages", "bytes",
			"partition_seconds", "run_seconds"}, rows)
}
