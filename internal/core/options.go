// Package core implements the paper's contribution: TLP, the two-stage
// local graph edge partitioner, and its ablation variant TLP_R.
//
// TLP grows partitions one at a time ("local graph partitioning"): each
// round seeds a partition with a random vertex and repeatedly absorbs the
// best frontier vertex until the partition reaches its edge capacity
// C = ceil(m/p). The growth switches between two selection strategies based
// on the partition's modularity M(P_k) = |E(P_k)|/|E_out(P_k)|:
//
//   - Stage I (M <= 1): pick the frontier vertex closest to the partition
//     with the highest degree, scored by mu_s1 (Eq. 7) — the maximum, over
//     partition members j adjacent to the candidate v, of
//     |N(v) ∩ N(j)| / |N(j)|.
//   - Stage II (M > 1): pick the frontier vertex whose absorption maximises
//     the modularity gain ΔM (Eqs. 9-11).
//
// Only the current partition, its frontier and O(1) counters are held per
// round, which is the paper's locality property: memory is O(L·d) for L
// vertices per partition and average degree d.
package core

import (
	"fmt"
	"math"
)

// Stage1Policy selects the Stage-I vertex selection rule; the paper's mu_s1
// is the default, and a plain max-degree rule exists as an ablation of the
// "closeness" component (DESIGN.md §6).
type Stage1Policy int

const (
	// PolicyMuS1 is the paper's Eq. 7 rule: best common-neighbour overlap
	// with a partition member (closeness x degree).
	PolicyMuS1 Stage1Policy = iota + 1
	// PolicyMaxDegree ignores closeness and absorbs the highest-degree
	// frontier vertex; isolates the contribution of the overlap term.
	PolicyMaxDegree
)

// Options configures a TLP (or TLP_R) run. The zero value gives the paper's
// defaults: capacity C = ceil(m/p), reseeding on frontier exhaustion, and
// exact Stage-I evaluation.
type Options struct {
	// Seed drives every random choice (round seed vertices). Runs with
	// equal seeds on equal graphs produce identical partitionings.
	Seed uint64

	// CapacitySlack scales the per-partition capacity:
	// C = ceil(slack * m / p). Zero means 1.0 (the paper's balanced
	// setting). Values below 1 are rejected — the assignment could not
	// cover the graph — and so are NaN and ±Inf.
	CapacitySlack float64

	// LiteralBreak restores Algorithm 1's literal behaviour of ending a
	// round when the frontier empties (e.g. a connected component is
	// exhausted). The default (false) reseeds the same partition with a
	// fresh random vertex so capacity is not wasted; see DESIGN.md §1.
	// With LiteralBreak set, edges left over after p rounds are swept
	// into the least-loaded partitions so the result is still complete.
	LiteralBreak bool

	// Stage1Policy selects the Stage-I rule; zero means PolicyMuS1.
	Stage1Policy Stage1Policy

	// Stage1Exact rescores every frontier candidate on the current
	// remaining graph before every Stage-I pick, by refolding every member
	// of the round (the paper's literal rule). The default cache folds a
	// member once, when it is absorbed, so its terms go stale as alive
	// degrees drift, and the two rules give different partitionings. Exact
	// mode costs a refold of the whole round per pick.
	Stage1Exact bool
}

func (o Options) capacitySlack() float64 {
	if o.CapacitySlack == 0 {
		return 1.0
	}
	return o.CapacitySlack
}

func (o Options) validate() error {
	if math.IsNaN(o.CapacitySlack) || math.IsInf(o.CapacitySlack, 0) {
		return fmt.Errorf("core: capacity slack %v is not finite", o.CapacitySlack)
	}
	if o.CapacitySlack != 0 && o.CapacitySlack < 1.0 {
		return fmt.Errorf("core: capacity slack %v < 1 cannot cover the graph", o.CapacitySlack)
	}
	switch o.Stage1Policy {
	case 0, PolicyMuS1, PolicyMaxDegree:
	default:
		return fmt.Errorf("core: unknown stage-I policy %d", o.Stage1Policy)
	}
	return nil
}

func (o Options) stage1Policy() Stage1Policy {
	if o.Stage1Policy == 0 {
		return PolicyMuS1
	}
	return o.Stage1Policy
}

// Stats records what happened during a partitioning run; Table VI of the
// paper reports the per-stage average degrees.
type Stats struct {
	// Stage1Selections / Stage2Selections count vertices absorbed in each
	// stage across all rounds.
	Stage1Selections, Stage2Selections int
	// Stage1DegreeSum / Stage2DegreeSum accumulate the original-graph
	// degree of vertices absorbed in each stage.
	Stage1DegreeSum, Stage2DegreeSum int64
	// Reseeds counts frontier-exhaustion reseeds (always 0 with
	// LiteralBreak).
	Reseeds int
	// PartialAbsorptions counts round-ending absorptions that hit the
	// capacity mid-vertex, assigning only part of the candidate's edges.
	PartialAbsorptions int
	// SweptEdges counts edges placed by the final balance sweep (only
	// nonzero with LiteralBreak, or when capacity rounding strands edges).
	SweptEdges int
	// Rounds is the number of partition-growth rounds executed.
	Rounds int
	// Stage1Kernels counts the Eq. 7 intersections (DESIGN.md §13).
	Stage1Kernels KernelCounts
}

// KernelCounts tallies stage-I intersection evaluations. One kernel, the
// oriented triangle count, evaluates them all.
type KernelCounts struct {
	// Scan counts candidate terms scored by the oriented triangle count,
	// in both the default and the Stage1Exact mode.
	Scan int64
	// Bitset, Word, Gallop and Sampled are always 0. They counted the
	// deleted pair kernels and the retired sampled path, and are kept only
	// for existing readers.
	Bitset, Word, Gallop, Sampled int64
}

// AvgDegreeStage1 returns the average original-graph degree of the vertices
// selected during Stage I (Table VI, left columns), or 0 when none were.
func (s Stats) AvgDegreeStage1() float64 {
	if s.Stage1Selections == 0 {
		return 0
	}
	return float64(s.Stage1DegreeSum) / float64(s.Stage1Selections)
}

// AvgDegreeStage2 returns the average original-graph degree of the vertices
// selected during Stage II (Table VI, right columns), or 0 when none were.
func (s Stats) AvgDegreeStage2() float64 {
	if s.Stage2Selections == 0 {
		return 0
	}
	return float64(s.Stage2DegreeSum) / float64(s.Stage2Selections)
}
