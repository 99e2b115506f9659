package harness

import (
	"fmt"

	"github.com/graphpart/graphpart/internal/core"
	"github.com/graphpart/graphpart/internal/graph"
	"github.com/graphpart/graphpart/internal/metis"
	"github.com/graphpart/graphpart/internal/obs"
	"github.com/graphpart/graphpart/internal/parallel"
	"github.com/graphpart/graphpart/internal/partition"
	"github.com/graphpart/graphpart/internal/streaming"
	"github.com/graphpart/graphpart/internal/window"
)

// family is one partitioner family of the experiment grids. Constructors
// (rather than shared instances) let every parallel cell own its
// partitioner — partitioners and rng.RNG are not goroutine-safe — while
// staying deterministic, because each instance is a function of the seed
// alone.
type family struct {
	// name labels the family's table columns and CSV rows.
	name string
	// maxEdges bounds the graphs the family runs on (0 = unbounded);
	// larger graphs give a skipped cell.
	maxEdges int
	make     func(seed uint64) partition.Partitioner
}

// roster is every partitioner family the harness runs, quality algorithms
// first; the engine and refine grids run it whole, the other experiments
// pick from it by name.
var roster = []family{
	{"TLP", 0, func(seed uint64) partition.Partitioner { return core.MustNew(core.Options{Seed: seed}) }},
	{"METIS", 0, func(seed uint64) partition.Partitioner { return metis.New(metis.Config{Seed: seed}) }},
	// Core's growth round over the window's CSR: near-linear in m, so it
	// runs on every dataset.
	{"TLP-SW", 0, func(seed uint64) partition.Partitioner { return window.New(window.Config{Seed: seed}) }},
	// Flat KL is quadratic without coarsening (the reason multilevel
	// exists); bound it to graphs it can handle.
	{"KL(flat)", 150000, func(seed uint64) partition.Partitioner { return metis.NewFlatKL(metis.Config{Seed: seed}) }},
	{"HDRF", 0, func(seed uint64) partition.Partitioner { return streaming.NewHDRF(seed, streaming.OrderShuffled) }},
	{"Greedy", 0, func(seed uint64) partition.Partitioner { return streaming.NewGreedy(seed, streaming.OrderShuffled) }},
	{"LDG", 0, func(seed uint64) partition.Partitioner { return streaming.NewLDG(seed) }},
	{"FENNEL", 0, func(seed uint64) partition.Partitioner { return streaming.NewFENNEL(seed) }},
	{"DBH", 0, func(seed uint64) partition.Partitioner { return streaming.NewDBH(seed) }},
	{"Random", 0, func(seed uint64) partition.Partitioner { return streaming.NewRandom(seed) }},
}

// fig8Families is the paper's Fig. 8 roster in its order.
var fig8Families = pick("TLP", "METIS", "LDG", "DBH", "Random")

// pick returns the named roster families in the order given.
func pick(names ...string) []family {
	out := make([]family, 0, len(names))
	for _, name := range names {
		i := 0
		for i < len(roster) && roster[i].name != name {
			i++
		}
		if i == len(roster) {
			panic("harness: no family " + name)
		}
		out = append(out, roster[i])
	}
	return out
}

// runCell builds family f from the seed and partitions g into p parts under
// the harness.cell span, timing only the partitioning. A graph above f's
// edge bound is not run: the Result carries names only and the assignment
// is nil.
func runCell(f family, g *graph.Graph, dataset string, p int, seed uint64) (Result, *partition.Assignment, error) {
	res := Result{Dataset: dataset, Algorithm: f.name, P: p}
	if f.maxEdges > 0 && g.NumEdges() > f.maxEdges {
		return res, nil, nil
	}
	sp := obs.Start("harness.cell", obs.String("dataset", dataset),
		obs.String("algorithm", f.name), obs.Int("p", p))
	watch := obs.StartWatch()
	a, err := f.make(seed).Partition(g, p)
	if err != nil {
		sp.End()
		return res, nil, fmt.Errorf("harness: %s on %s p=%d: %w", f.name, dataset, p, err)
	}
	res.Seconds = watch.Seconds()
	m, err := partition.Compute(g, a)
	if err != nil {
		sp.End()
		return res, nil, fmt.Errorf("harness: metrics for %s on %s p=%d: %w", f.name, dataset, p, err)
	}
	res.RF, res.Balance = m.ReplicationFactor, m.Balance
	sp.EndWith(obs.Float("rf", res.RF), obs.Float("seconds", res.Seconds))
	return res, a, nil
}

// runGrid runs one cell per (p, dataset, family) on the worker pool and
// hands each to then; results land by cell index, p-major, then dataset,
// then family, so the order is the same for any worker count.
func runGrid[T any](cfg Config, fams []family, ps []int,
	then func(g *graph.Graph, r Result, a *partition.Assignment) (T, error)) ([]T, error) {
	graphs := generateAll(cfg)
	perP := len(cfg.Datasets) * len(fams)
	return parallel.MapErr(len(ps)*perP, cfg.Workers, func(i int) (T, error) {
		d := cfg.Datasets[i%perP/len(fams)]
		g := graphs[d.Notation]
		r, a, err := runCell(fams[i%len(fams)], g, d.Notation, ps[i/perP], cfg.Seed)
		if err != nil {
			var zero T
			return zero, err
		}
		return then(g, r, a)
	})
}

// measured is the then of runGrid for grids that report only the cells'
// measurements.
func measured(_ *graph.Graph, r Result, _ *partition.Assignment) (Result, error) { return r, nil }
