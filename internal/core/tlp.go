package core

import (
	"fmt"
	"math"

	"github.com/graphpart/graphpart/internal/graph"
	"github.com/graphpart/graphpart/internal/invariants"
	"github.com/graphpart/graphpart/internal/obs"
	"github.com/graphpart/graphpart/internal/partition"
)

// TLP is the paper's two-stage local partitioner: the stage switch happens
// when the growing partition's modularity M(P_k) crosses 1 (Table II).
type TLP struct {
	opts Options
}

var _ partition.Partitioner = (*TLP)(nil)

// New returns a TLP partitioner with the given options.
func New(opts Options) (*TLP, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	return &TLP{opts: opts}, nil
}

// MustNew is New that panics on invalid options; for tests and examples.
func MustNew(opts Options) *TLP {
	t, err := New(opts)
	if err != nil {
		panic(err)
	}
	return t
}

// Name implements partition.Partitioner.
func (t *TLP) Name() string { return "TLP" }

// Partition assigns every edge of g to one of p partitions.
func (t *TLP) Partition(g *graph.Graph, p int) (*partition.Assignment, error) {
	a, _, err := t.PartitionStats(g, p)
	return a, err
}

// PartitionStats is Partition, additionally returning the run statistics
// (per-stage selection counts and degree sums; Table VI).
func (t *TLP) PartitionStats(g *graph.Graph, p int) (*partition.Assignment, Stats, error) {
	return runLocal(g, p, t.opts, func(ein, eout int64, _ int) bool {
		// Stage I while M = ein/eout <= 1 (Table II); eout cannot be 0
		// here because selection only happens with a nonempty frontier.
		return ein <= eout
	})
}

// TLPR is the ablation variant of Section IV.C: the stage switch happens at
// a fixed fraction R of the capacity instead of the modularity threshold.
// R=0 degenerates to pure Stage II, R=1 to pure Stage I.
type TLPR struct {
	r    float64
	opts Options
}

var _ partition.Partitioner = (*TLPR)(nil)

// NewTLPR returns a TLP_R partitioner with ratio r in [0, 1].
func NewTLPR(r float64, opts Options) (*TLPR, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if r < 0 || r > 1 || math.IsNaN(r) {
		return nil, fmt.Errorf("core: TLP_R ratio %v outside [0,1]", r)
	}
	return &TLPR{r: r, opts: opts}, nil
}

// MustNewTLPR is NewTLPR that panics on error; for tests and examples.
func MustNewTLPR(r float64, opts Options) *TLPR {
	t, err := NewTLPR(r, opts)
	if err != nil {
		panic(err)
	}
	return t
}

// Name implements partition.Partitioner.
func (t *TLPR) Name() string { return fmt.Sprintf("TLP_R(%.1f)", t.r) }

// R returns the stage-division ratio.
func (t *TLPR) R() float64 { return t.r }

// Partition assigns every edge of g to one of p partitions.
func (t *TLPR) Partition(g *graph.Graph, p int) (*partition.Assignment, error) {
	a, _, err := t.PartitionStats(g, p)
	return a, err
}

// PartitionStats is Partition with run statistics.
func (t *TLPR) PartitionStats(g *graph.Graph, p int) (*partition.Assignment, Stats, error) {
	r := t.r
	return runLocal(g, p, t.opts, func(ein, _ int64, capC int) bool {
		// Table V: Stage I while |E(P_k)| <= R*C. R=0 means Stage II
		// everywhere, including the empty partition.
		return r > 0 && float64(ein) <= r*float64(capC)
	})
}

// stagePolicy decides whether the next selection uses Stage I, given the
// partition's internal edges, external edges and capacity.
type stagePolicy func(ein, eout int64, capC int) bool

// runLocal executes the local partitioning loop shared by TLP and TLP_R.
func runLocal(g *graph.Graph, p int, opts Options, isStage1 stagePolicy) (*partition.Assignment, Stats, error) {
	var stats Stats
	if g == nil {
		return nil, stats, fmt.Errorf("core: nil graph")
	}
	a, err := partition.New(g.NumEdges(), p)
	if err != nil {
		return nil, stats, err
	}
	m := g.NumEdges()
	if m == 0 {
		return a, stats, nil
	}
	capC := int(math.Ceil(opts.capacitySlack() * float64(m) / float64(p)))
	if capC < 1 {
		capC = 1
	}
	sp := obs.Start("tlp.partition",
		obs.Int("p", p), obs.Int("edges", m), obs.Int("capacity", capC))
	bsp := sp.Child("tlp.s1.build")
	st := newRunState(g, a, opts)
	bsp.End()
	stage1 := func(ein, eout int64) bool { return isStage1(ein, eout, capC) }
	for k := 0; k < p && st.left > 0; k++ {
		stats.Rounds++
		st.growRound(k, capC, nil, stage1, &stats, &sp)
	}
	// Balance sweep: any leftover edges (LiteralBreak mode, or capacity
	// rounding) go to the least-loaded partitions, ties to the lowest id.
	if st.left > 0 {
		ssp := sp.Child("tlp.sweep", obs.Int("leftover", st.left))
		stats.SweptEdges = partition.AssignLeftovers(a)
		ssp.EndWith(obs.Int("swept", stats.SweptEdges))
	}
	stats.Stage1Kernels = KernelCounts{Scan: st.s1Evals}
	recordRunMetrics(&stats)
	sp.EndWith(obs.Int("rounds", stats.Rounds),
		obs.Int("stage1_selections", stats.Stage1Selections),
		obs.Int("stage2_selections", stats.Stage2Selections),
		obs.Int("reseeds", stats.Reseeds),
		obs.Int("swept", stats.SweptEdges))
	return a, stats, nil
}

// growRound runs one growth round of partition k on the remaining graph. The
// round starts from the members in start, absorbed in order, or from one
// random seed when start is empty; it then absorbs the best frontier vertex,
// reseeding when the frontier empties, until room edges are assigned or none
// is left alive. isStage1 sees the round's ein and eout.
func (st *runState) growRound(k, room int, start []graph.Vertex, isStage1 func(ein, eout int64) bool, stats *Stats, parent *obs.Span) {
	st.beginRound()
	rt := beginRoundTrace(parent, k)
	defer rt.end(st)
	if len(start) == 0 {
		seed, ok := st.pickSeed()
		if !ok {
			return
		}
		start = []graph.Vertex{seed}
	}
	for _, v := range start {
		if _, full := st.absorb(v, k, room); !full {
			stats.PartialAbsorptions++
			return
		}
	}
	prevEin := st.ein
	for int(st.ein) < room && st.left > 0 {
		var v graph.Vertex
		ok, stage1 := false, false
		if st.eout > 0 {
			stage1 = isStage1(st.ein, st.eout)
			rt.stage(st, stage1)
			if stage1 {
				v, ok = st.selectStage1()
			} else {
				v, ok = st.selectStage2()
			}
		}
		if !ok {
			// Frontier exhausted (component consumed), or, defensively,
			// no valid candidate while eout > 0.
			if st.opts.LiteralBreak {
				break
			}
			if v, ok = st.pickSeed(); !ok {
				break
			}
			stats.Reseeds++
		} else if stage1 {
			stats.Stage1Selections++
			stats.Stage1DegreeSum += int64(st.g.Degree(v))
		} else {
			stats.Stage2Selections++
			stats.Stage2DegreeSum += int64(st.g.Degree(v))
		}
		if _, full := st.absorb(v, k, room); !full {
			// The frontier cross-check below is only meaningful after a
			// completed absorption.
			stats.PartialAbsorptions++
			return
		}
		if invariants.Enabled {
			invariants.Assertf(st.ein >= prevEin && int(st.ein) <= room,
				"round %d: ein went from %d to %d (room %d)", st.round, prevEin, st.ein, room)
			prevEin = st.ein
		}
	}
	st.assertRoundInvariants()
}

// absorb makes v a member of partition k: every alive edge between v and an
// existing member is assigned to k (up to the capacity), and v's remaining
// alive edges extend the frontier. It returns the number of edges assigned
// and whether the absorption completed (false means the capacity was hit
// mid-vertex; the round must end and v is NOT recorded as a member, so its
// remaining member edges stay alive for later rounds).
func (st *runState) absorb(v graph.Vertex, k, capC int) (assigned int, full bool) {
	// cin[v] is exact for any non-member mid-round (an alive v-member edge
	// can only die by absorbing v itself), so ein+cin tells up front whether
	// the capacity can be hit mid-vertex. Only that rare path must choose
	// which member edges to assign: a capacity break has always assigned a
	// CSR-order edge prefix, and alive rows are in swap-mutated order.
	cin := 0
	if st.inFrontier(v) {
		cin = int(st.cin[v])
	}
	if int(st.ein)+cin > capC {
		return st.absorbPrefix(v, k, capC)
	}
	// Guaranteed-full absorption: every alive member edge gets assigned, so
	// assignment order cannot matter.
	assigned = st.assignMemberEdges(v, k, math.MaxInt32)
	st.finishAbsorb(v)
	return assigned, true
}

// assignMemberEdges assigns to partition k every alive edge between v and a
// member whose id is at most limit, walking only v's alive row. kill
// moves a not-yet-visited arc into the current slot, so the index only
// advances past arcs it keeps.
func (st *runState) assignMemberEdges(v graph.Vertex, k int, limit graph.Vertex) (assigned int) {
	w := st.kernelWatch()
	aa := st.alive
	lo := aa.off[v]
	for s := lo; s < lo+int64(aa.n[v]); {
		u := aa.nbr[s]
		if u > limit || !st.isMember(u) {
			s++
			continue
		}
		st.a.Assign(aa.eid[s], k)
		st.left--
		st.ein++
		st.eout--
		st.aliveDeg[v]--
		st.aliveDeg[u]--
		aa.kill(v, s)
		assigned++
	}
	st.tCompact += w.lap()
	return assigned
}

// finishAbsorb records v as a member and extends the frontier: after a full
// absorption every alive edge of v leads to a non-member, so v's compacted
// row is exactly the frontier extension set. Row order differs from CSR
// order, but touchFrontier's effects are order insensitive: cin increments
// commute, and the bucket/score heaps pop in an order determined only by
// their entry multisets. v is then folded into the stage-I scores, or, in
// exact mode, queued for the refold before every pick.
func (st *runState) finishAbsorb(v graph.Vertex) {
	st.memberEpoch[v] = st.round
	vn, _ := st.alive.row(v)
	for _, u := range vn {
		if st.isMember(u) {
			continue
		}
		st.eout++
		st.touchFrontier(u)
	}
	if st.opts.Stage1Exact {
		st.members = append(st.members, v)
	} else {
		st.updateStage1Scores(v)
	}
}

// absorbPrefix is the capacity-hit absorption path. It assigns exactly the
// edge prefix a walk of v's CSR row in order would: the first room alive
// member edges, where room is the capacity left. CSR rows are sorted by
// neighbour id, so that prefix is the alive member edges whose neighbour id
// is at most the room-th one's, and one pass over the alive row retires
// them. On the partial outcome v is not recorded as a member, and its
// remaining member edges stay alive for later rounds. (With exact cin the
// capacity always interrupts this path; the full outcome is kept for parity
// with the historical loop.)
func (st *runState) absorbPrefix(v graph.Vertex, k, capC int) (assigned int, full bool) {
	g := st.g
	eids := g.IncidentEdges(v)
	room := capC - int(st.ein)
	limit := graph.Vertex(-1)
	full = true
	for i, u := range g.Neighbors(v) {
		if st.a.IsAssigned(eids[i]) || !st.isMember(u) {
			continue
		}
		if room == 0 {
			full = false
			break
		}
		room--
		limit = u
	}
	if limit >= 0 {
		assigned = st.assignMemberEdges(v, k, limit)
	}
	if full {
		st.finishAbsorb(v)
	}
	return assigned, full
}
