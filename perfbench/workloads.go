package main

import (
	"fmt"

	"github.com/graphpart/graphpart/internal/core"
	"github.com/graphpart/graphpart/internal/engine"
	"github.com/graphpart/graphpart/internal/graph"
	"github.com/graphpart/graphpart/internal/metis"
	"github.com/graphpart/graphpart/internal/partition"
	"github.com/graphpart/graphpart/internal/refine"
	"github.com/graphpart/graphpart/internal/wire"
)

// algSeed seeds the partitioners; the workload seed only picks the graphs.
const algSeed = 42

const (
	// prSteps is the PageRank superstep budget of both engine workloads.
	prSteps = 20
	// ccSteps lets Components run to convergence on every dataset.
	ccSteps = 100000
)

// workload is one closed loop: setup builds the inputs once, and the
// returned pass makes one pass of layer calls back to back.
type workload struct {
	name  string
	setup func(cfg *config, rec *recorder) (passFunc, error)
}

// passFunc makes one pass. The caller times it; it returns every output for
// the untimed checks.
type passFunc func(rec *recorder) (*passOut, error)

// passOut is what one pass produced.
type passOut struct {
	parts []part
	runs  []valueRun
}

// part is one edge partitioning with its quality.
type part struct {
	name string
	g    *graph.Graph
	a    *partition.Assignment
	m    partition.Metrics
}

// valueRun is one vertex-program result and the oracle it must match.
type valueRun struct {
	name   string
	values []float64
	steps  int
	want   *oracle
}

// oracle is a RunSequential result computed in setup.
type oracle struct {
	values []float64
	steps  int
}

var workloads = []workload{
	{name: "tlp-large", setup: setupTLPLarge},
	{name: "metis-refine", setup: setupMetisRefine},
	{name: "engine-mem", setup: setupEngineMem},
	{name: "cluster-tcp", setup: setupClusterTCP},
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// setupTLPLarge: TLP plus partition.Compute at p=10 on G5-G9.
func setupTLPLarge(cfg *config, rec *recorder) (passFunc, error) {
	ds, err := cfg.generate(rec, "G5", "G6", "G7", "G8", "G9")
	if err != nil {
		return nil, err
	}
	return func(rec *recorder) (*passOut, error) {
		out := &passOut{}
		for _, d := range ds {
			pt, err := partitionTLP(rec, d, 10)
			if err != nil {
				return nil, err
			}
			if err := rec.span("partition.compute", func() (err error) {
				pt.m, err = partition.Compute(d.g, pt.a)
				return err
			}); err != nil {
				return nil, fmt.Errorf("metrics on %s: %w", d.name, err)
			}
			out.parts = append(out.parts, pt)
		}
		return out, nil
	}, nil
}

// partitionTLP runs TLP on d at p inside one core.partition span and
// records its stage and kernel counts.
func partitionTLP(rec *recorder, d dataset, p int) (part, error) {
	tlp := core.MustNew(core.Options{Seed: algSeed})
	var a *partition.Assignment
	var st core.Stats
	if err := rec.span("core.partition", func() (err error) {
		a, st, err = tlp.PartitionStats(d.g, p)
		return err
	}); err != nil {
		return part{}, fmt.Errorf("TLP on %s p=%d: %w", d.name, p, err)
	}
	k := st.Stage1Kernels
	rec.count("core.s1_selections", float64(st.Stage1Selections))
	rec.count("core.s2_selections", float64(st.Stage2Selections))
	rec.count("core.s1_intersections", float64(k.Scan+k.Gallop+k.Bitset+k.Word+k.Sampled))
	rec.count("core.kernel_scan", float64(k.Scan))
	rec.count("core.kernel_gallop", float64(k.Gallop))
	rec.count("core.kernel_bitset", float64(k.Bitset))
	rec.count("core.kernel_word", float64(k.Word))
	return part{name: d.name, g: d.g, a: a}, nil
}

// setupMetisRefine: METIS held to TLP's capacity, then refine, at p=10 on
// G2-G4.
func setupMetisRefine(cfg *config, rec *recorder) (passFunc, error) {
	ds, err := cfg.generate(rec, "G2", "G3", "G4")
	if err != nil {
		return nil, err
	}
	const p = 10
	return func(rec *recorder) (*passOut, error) {
		out := &passOut{}
		for _, d := range ds {
			mp := metis.New(metis.Config{Seed: algSeed})
			var labels []int32
			if err := rec.span("metis.vertex_partition", func() (err error) {
				labels, err = mp.VertexPartition(d.g, p)
				return err
			}); err != nil {
				return nil, fmt.Errorf("METIS on %s: %w", d.name, err)
			}
			pt := part{name: d.name, g: d.g}
			if err := rec.span("metis.derive", func() (err error) {
				pt.a, err = metis.DeriveBalanced(d.g, labels, p)
				return err
			}); err != nil {
				return nil, fmt.Errorf("derive on %s: %w", d.name, err)
			}
			var rs refine.Stats
			if err := rec.span("refine.run", func() (err error) {
				rs, err = refine.Run(d.g, pt.a, refine.Options{})
				return err
			}); err != nil {
				return nil, fmt.Errorf("refine on %s: %w", d.name, err)
			}
			rec.count("refine.passes", float64(rs.Passes))
			rec.count("refine.moves", float64(rs.Moves))
			rec.count("refine.swaps", float64(rs.Swaps))
			rec.count("refine.replicas_removed", float64(rs.ReplicasRemoved))
			if err := rec.span("partition.compute", func() (err error) {
				pt.m, err = partition.Compute(d.g, pt.a)
				return err
			}); err != nil {
				return nil, fmt.Errorf("metrics on %s: %w", d.name, err)
			}
			out.parts = append(out.parts, pt)
		}
		return out, nil
	}, nil
}

// fixedPart builds the partitioning an engine workload runs on: TLP at p on
// the named dataset, measured once.
func fixedPart(cfg *config, rec *recorder, notation string, p int) (part, error) {
	ds, err := cfg.generate(rec, notation)
	if err != nil {
		return part{}, err
	}
	pt, err := partitionTLP(rec, ds[0], p)
	if err != nil {
		return part{}, err
	}
	if err := rec.span("partition.compute", func() (err error) {
		pt.m, err = partition.Compute(pt.g, pt.a)
		return err
	}); err != nil {
		return part{}, fmt.Errorf("metrics on %s: %w", pt.name, err)
	}
	return pt, nil
}

func newPageRank(g *graph.Graph) engine.Program {
	return engine.NewPageRank(g.NumVertices(), 0.85, 1e-9)
}

// sequential computes the oracle of prog on g.
func sequential(g *graph.Graph, prog engine.Program, steps int) (*oracle, error) {
	values, n, err := engine.RunSequential(g, prog, steps)
	if err != nil {
		return nil, fmt.Errorf("%s oracle: %w", prog.Name(), err)
	}
	return &oracle{values: values, steps: n}, nil
}

// countEngine records the traffic of one engine or cluster run.
func countEngine(rec *recorder, st engine.Stats) {
	rec.count("engine.supersteps", float64(st.Supersteps))
	rec.count("engine.gather_messages", float64(st.GatherMessages))
	rec.count("engine.apply_messages", float64(st.ApplyMessages))
	rec.count("engine.activate_messages", float64(st.ActivateMessages))
	rec.count("engine.bytes", float64(st.Bytes()))
}

// setupEngineMem: engine.New, PageRank and Components over MemTransport on
// a TLP p=8 partitioning of G8.
func setupEngineMem(cfg *config, rec *recorder) (passFunc, error) {
	pt, err := fixedPart(cfg, rec, "G8", 8)
	if err != nil {
		return nil, err
	}
	wantPR, err := sequential(pt.g, newPageRank(pt.g), prSteps)
	if err != nil {
		return nil, err
	}
	wantCC, err := sequential(pt.g, &engine.Components{}, ccSteps)
	if err != nil {
		return nil, err
	}
	return func(rec *recorder) (*passOut, error) {
		var e *engine.Engine
		if err := rec.span("engine.build", func() (err error) {
			e, err = engine.New(pt.g, pt.a)
			return err
		}); err != nil {
			return nil, err
		}
		pr := valueRun{name: "pagerank", want: wantPR}
		if err := rec.span("engine.pagerank", func() error {
			values, st, err := e.Run(newPageRank(pt.g), prSteps)
			pr.values, pr.steps = values, st.Supersteps
			countEngine(rec, st)
			return err
		}); err != nil {
			return nil, err
		}
		cc := valueRun{name: "components", want: wantCC}
		if err := rec.span("engine.cc", func() error {
			values, st, err := e.Run(&engine.Components{}, ccSteps)
			cc.values, cc.steps = values, st.Supersteps
			countEngine(rec, st)
			return err
		}); err != nil {
			return nil, err
		}
		return &passOut{parts: []part{pt}, runs: []valueRun{pr, cc}}, nil
	}, nil
}

// setupClusterTCP: wire.RunCluster PageRank with one worker process per
// machine on a TLP p=2 partitioning of G5, then the same run in process.
func setupClusterTCP(cfg *config, rec *recorder) (passFunc, error) {
	pt, err := fixedPart(cfg, rec, "G5", 2)
	if err != nil {
		return nil, err
	}
	want, err := sequential(pt.g, newPageRank(pt.g), prSteps)
	if err != nil {
		return nil, err
	}
	var e *engine.Engine
	if err := rec.span("engine.build", func() (err error) {
		e, err = engine.New(pt.g, pt.a)
		return err
	}); err != nil {
		return nil, err
	}
	ctrl, err := meshControlBytes(e, pt, want)
	if err != nil {
		return nil, err
	}
	rec.count("wire.control_bytes", float64(ctrl))
	return func(rec *recorder) (*passOut, error) {
		cl := valueRun{name: "cluster-pagerank", want: want}
		if err := rec.span("wire.cluster", func() error {
			var st engine.Stats
			var ct *wire.ClusterTelemetry
			var err error
			if rec.traced {
				cl.values, st, ct, err = wire.RunClusterTraced(pt.g, pt.a, newPageRank(pt.g), prSteps, nil)
			} else {
				cl.values, st, err = wire.RunCluster(pt.g, pt.a, newPageRank(pt.g), prSteps, nil)
			}
			cl.steps = st.Supersteps
			rec.count("wire.framed_bytes", float64(st.Bytes()))
			if ct != nil {
				rec.observe("wire.barrier_skew_max_s", maxSkewSeconds(ct))
			}
			return err
		}); err != nil {
			return nil, err
		}
		mem := valueRun{name: "mem-pagerank", want: want}
		if err := rec.span("wire.mem_run", func() error {
			values, st, err := e.Run(newPageRank(pt.g), prSteps)
			mem.values, mem.steps = values, st.Supersteps
			countEngine(rec, st)
			return err
		}); err != nil {
			return nil, err
		}
		return &passOut{parts: []part{pt}, runs: []valueRun{cl, mem}}, nil
	}, nil
}

// meshControlBytes runs PageRank once over the in-process TCP mesh — the
// transport every cluster worker uses — and returns its control-plane
// bytes (hellos and barriers), after checking the values.
func meshControlBytes(e *engine.Engine, pt part, want *oracle) (int64, error) {
	tcp, err := wire.NewTCPTransport(pt.a.P())
	if err != nil {
		return 0, fmt.Errorf("tcp mesh: %w", err)
	}
	defer tcp.Close()
	values, st, err := e.RunWith(newPageRank(pt.g), prSteps, tcp)
	if err != nil {
		return 0, fmt.Errorf("tcp mesh run: %w", err)
	}
	if !sameValues(values, want.values) || st.Supersteps != want.steps {
		return 0, fmt.Errorf("tcp mesh run differs from the sequential oracle")
	}
	return tcp.ControlBytes(), nil
}

// maxSkewSeconds is the largest per-superstep barrier skew of a traced
// cluster run.
func maxSkewSeconds(ct *wire.ClusterTelemetry) float64 {
	m := 0.0
	for _, s := range ct.BarrierSkew() {
		if v := float64(s.SkewNanos) / 1e9; v > m {
			m = v
		}
	}
	return m
}
