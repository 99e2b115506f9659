package graphpart

import (
	"github.com/graphpart/graphpart/internal/metis"
	"github.com/graphpart/graphpart/internal/streaming"
	"github.com/graphpart/graphpart/internal/window"
)

// METISConfig tunes the multilevel baseline partitioner.
type METISConfig = metis.Config

// StreamOrder selects how streaming partitioners sequence their input.
type StreamOrder = streaming.Order

// Stream orders re-exported from the streaming package.
const (
	// OrderShuffled streams in a seeded random order (default).
	OrderShuffled = streaming.OrderShuffled
	// OrderNatural streams in id order.
	OrderNatural = streaming.OrderNatural
	// OrderBFS streams in breadth-first order from random roots.
	OrderBFS = streaming.OrderBFS
)

// NewMETIS returns the METIS-style multilevel offline baseline: heavy-edge
// matching coarsening, greedy-growing initial bisection, FM refinement,
// recursive bisection for k parts, and balanced edge derivation.
func NewMETIS(cfg METISConfig) Partitioner { return metis.New(cfg) }

// NewLDG returns the Linear Deterministic Greedy streaming vertex
// partitioner (Stanton & Kliot, KDD 2012) with derived edge placement. It
// reads each vertex's adjacency from the graph, so it needs the whole graph
// in memory.
func NewLDG(seed uint64) Partitioner { return streaming.NewLDG(seed) }

// NewDBH returns the degree-based hashing edge partitioner (Xie et al.,
// NIPS 2014).
func NewDBH(seed uint64) Partitioner { return streaming.NewDBH(seed) }

// NewRandom returns the uniform random edge partitioner (the paper's
// lower-bound baseline).
func NewRandom(seed uint64) Partitioner { return streaming.NewRandom(seed) }

// NewHDRF returns the High-Degree Replicated First streaming edge
// partitioner (Petroni et al., CIKM 2015) with balance weight lambda = 1.
func NewHDRF(seed uint64, order StreamOrder) Partitioner {
	return streaming.NewHDRF(seed, order)
}

// SlidingWindowConfig tunes the sliding-window TLP variant (the paper's
// future-work extension).
type SlidingWindowConfig = window.Config

// NewSlidingTLP returns the sliding-window TLP variant: it partitions an
// edge stream holding only a bounded window of unassigned edges in memory
// (Section V future work of the paper). The concrete type additionally
// exposes PartitionStreamStats and PartitionChannel for stream use; in
// AllPartitioners it is registered under the key "tlpsw".
func NewSlidingTLP(cfg SlidingWindowConfig) *SlidingTLP { return window.New(cfg) }

// NewFlatKL returns the non-multilevel offline baseline (greedy growing plus
// FM refinement on the full graph) — the classic Kernighan-Lin-family
// approach the paper cites; exists as the multilevel-vs-flat ablation.
func NewFlatKL(cfg METISConfig) Partitioner { return metis.NewFlatKL(cfg) }

// AllPartitioners returns one instance of every partitioner in this library
// keyed by lower-case name; handy for CLIs and comparisons.
//
// Two entries carry naming notes: "tlpsw" is the sliding-window TLP variant
// (NewSlidingTLP), and "kl" is the flat Kernighan-Lin-family baseline
// (NewFlatKL), whose Name is "KL".
func AllPartitioners(seed uint64) map[string]Partitioner {
	return map[string]Partitioner{
		"tlp":    NewTLP(TLPOptions{Seed: seed}),
		"metis":  NewMETIS(METISConfig{Seed: seed}),
		"ldg":    NewLDG(seed),
		"fennel": streaming.NewFENNEL(seed),
		"dbh":    NewDBH(seed),
		"random": NewRandom(seed),
		"greedy": streaming.NewGreedy(seed, OrderShuffled),
		"hdrf":   NewHDRF(seed, OrderShuffled),
		"tlpsw":  NewSlidingTLP(SlidingWindowConfig{Seed: seed}),
		"kl":     NewFlatKL(METISConfig{Seed: seed}),
	}
}
