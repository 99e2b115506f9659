package core

import "github.com/graphpart/graphpart/internal/invariants"

// assertRoundInvariants cross-checks the incremental frontier bookkeeping
// against its definition at a point where the round's state is quiescent
// (after a completed absorption, never mid-vertex): the frontier N(P_k) is
// exactly the non-member vertices with at least one alive edge into P_k, so
//
//	1 <= cin[v] <= aliveDeg[v]   for every live frontier vertex, and
//	eout == sum of cin over the live frontier.
//
// The incremental ein/eout counters drive the paper's stage switch
// (M = ein/eout crossing 1), so a drift here silently changes which stage
// selects every subsequent vertex. No-op unless built with
// -tags graphpart_invariants.
func (st *runState) assertRoundInvariants() {
	if !invariants.Enabled {
		return
	}
	invariants.Assertf(st.ein >= 0 && st.eout >= 0,
		"round %d: negative edge counters ein=%d eout=%d", st.round, st.ein, st.eout)
	var sum int64
	for _, v := range st.frontierList {
		if !st.inFrontier(v) || st.isMember(v) {
			continue
		}
		c := st.cin[v]
		invariants.Assertf(c >= 1 && c <= st.aliveDeg[v],
			"round %d: frontier vertex %d has cin=%d outside [1,%d]", st.round, v, c, st.aliveDeg[v])
		sum += int64(c)
	}
	invariants.Assertf(sum == st.eout,
		"round %d: eout=%d but frontier cin sums to %d", st.round, st.eout, sum)
	st.assertAliveInvariants()
}

// assertAliveInvariants cross-checks the stage-I kernel structures against
// the aliveDeg counters they must mirror: every alive row's length equals
// aliveDeg and its forward prefix fits inside it, every alive arc's twin
// link names an arc of the same edge that links back, the row lengths sum
// to twice the unassigned edge count (each alive edge appears in exactly
// two rows). A drift here silently corrupts every subsequent Eq. 7 score.
// No-op unless built with -tags graphpart_invariants.
func (st *runState) assertAliveInvariants() {
	if !invariants.Enabled {
		return
	}
	aa := st.alive
	var aliveTotal int64
	for v := range st.aliveDeg {
		invariants.Assertf(aa.n[v] == st.aliveDeg[v],
			"round %d: vertex %d alive row has %d arcs but aliveDeg=%d",
			st.round, v, aa.n[v], st.aliveDeg[v])
		invariants.Assertf(aa.nf[v] >= 0 && aa.nf[v] <= aa.n[v],
			"round %d: vertex %d has %d forward arcs among %d alive",
			st.round, v, aa.nf[v], aa.n[v])
		aliveTotal += int64(aa.n[v])
		for s := aa.off[v]; s < aa.off[v]+int64(aa.n[v]); s++ {
			if t := aa.tw[s]; int64(aa.tw[t]) != s || aa.eid[t] != aa.eid[s] || int(aa.nbr[t]) != v {
				invariants.Assertf(false,
					"round %d: vertex %d arc slot %d (edge %d) has twin slot %d linking back to %d",
					st.round, v, s, aa.eid[s], t, aa.tw[t])
			}
		}
	}
	unassigned := int64(st.g.NumEdges() - st.a.AssignedCount())
	invariants.Assertf(aliveTotal == 2*unassigned,
		"round %d: alive rows total %d entries but %d edges are unassigned (want %d)",
		st.round, aliveTotal, unassigned, 2*unassigned)
}
