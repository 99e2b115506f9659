package core

import (
	"math"

	"github.com/graphpart/graphpart/internal/graph"
	"github.com/graphpart/graphpart/internal/partition"
)

// runLocalInstrumented runs the TLP loop with a hook invoked before every
// stage-II selection, comparing the bucket argmax against a brute-force scan
// of the frontier with the published formula. It returns the number of
// selections where the two disagreed on the achieved score.
func runLocalInstrumentedStage2Check(g *graph.Graph, p int, opts Options) (mismatches int, err error) {
	a, err := partition.New(g.NumEdges(), p)
	if err != nil {
		return 0, err
	}
	m := g.NumEdges()
	if m == 0 {
		return 0, nil
	}
	capC := partition.Capacity(m, p)
	st := newRunState(g, a, opts)
	assigned := 0
	for k := 0; k < p && assigned < m; k++ {
		st.beginRound()
		seed, ok := st.pickSeed()
		if !ok {
			break
		}
		n, full := st.absorb(seed, k, capC)
		assigned += n
		if !full {
			continue
		}
		for int(st.ein) < capC && assigned < m {
			if st.eout == 0 {
				reseed, ok := st.pickSeed()
				if !ok {
					break
				}
				n, full := st.absorb(reseed, k, capC)
				assigned += n
				if !full {
					break
				}
				continue
			}
			// Compare bucket selection with brute force.
			fast, okFast := st.selectStage2()
			brute, okBrute := st.bruteForceStage2()
			if okFast != okBrute {
				mismatches++
			} else if okFast {
				fs := st.candidateScore(fast)
				bs := st.candidateScore(brute)
				if math.Abs(fs-bs) > 1e-9 && !(math.IsInf(fs, 1) && math.IsInf(bs, 1)) {
					mismatches++
				}
			}
			if !okFast {
				break
			}
			n, full := st.absorb(fast, k, capC)
			assigned += n
			if !full {
				break
			}
		}
	}
	return mismatches, nil
}

// runLocalInstrumentedStage1ExactCheck runs the TLP loop under Stage1Exact
// with a hook invoked before every stage-I selection, comparing
// selectStage1's pick against bruteForceStage1's Eq. 7 argmax. It returns
// the number of stage-I picks and the number where the two disagreed.
func runLocalInstrumentedStage1ExactCheck(g *graph.Graph, p int, opts Options) (picks, mismatches int, err error) {
	opts.Stage1Exact = true
	a, err := partition.New(g.NumEdges(), p)
	if err != nil {
		return 0, 0, err
	}
	m := g.NumEdges()
	if m == 0 {
		return 0, 0, nil
	}
	capC := partition.Capacity(m, p)
	st := newRunState(g, a, opts)
	assigned := 0
	for k := 0; k < p && assigned < m; k++ {
		st.beginRound()
		seed, ok := st.pickSeed()
		if !ok {
			break
		}
		n, full := st.absorb(seed, k, capC)
		assigned += n
		if !full {
			continue
		}
		for int(st.ein) < capC && assigned < m {
			if st.eout == 0 {
				reseed, ok := st.pickSeed()
				if !ok {
					break
				}
				n, full := st.absorb(reseed, k, capC)
				assigned += n
				if !full {
					break
				}
				continue
			}
			var v graph.Vertex
			var okSel bool
			if st.ein <= st.eout {
				picks++
				v, okSel = st.selectStage1()
				brute, okBrute := st.bruteForceStage1()
				if okSel != okBrute || (okSel && v != brute) {
					mismatches++
				}
			} else {
				v, okSel = st.selectStage2()
			}
			if !okSel {
				break
			}
			n, full := st.absorb(v, k, capC)
			assigned += n
			if !full {
				break
			}
		}
	}
	return picks, mismatches, nil
}

// bruteForceStage1 evaluates Eq. 7 for every non-member with an alive edge
// to a member, from the CSR and the assignment alone: the best
// naiveOverlap(v, j)/|aliveN(j)| over alive member neighbours j. Ties go to
// the higher alive degree, then the lower id.
func (st *runState) bruteForceStage1() (graph.Vertex, bool) {
	g := st.g
	aliveDegree := make([]int, g.NumVertices())
	for e := 0; e < g.NumEdges(); e++ {
		if !st.a.IsAssigned(graph.EdgeID(e)) {
			ed := g.Edge(graph.EdgeID(e))
			aliveDegree[ed.U]++
			aliveDegree[ed.V]++
		}
	}
	best := -1.0
	var bestV graph.Vertex
	bestDeg := -1
	found := false
	for x := 0; x < g.NumVertices(); x++ {
		v := graph.Vertex(x)
		if st.isMember(v) {
			continue
		}
		candidate := false
		score := 0.0
		eids := g.IncidentEdges(v)
		for i, j := range g.Neighbors(v) {
			if st.a.IsAssigned(eids[i]) || !st.isMember(j) {
				continue
			}
			candidate = true
			if s := float64(naiveOverlap(g, st.a, v, j)) / float64(aliveDegree[j]); s > score {
				score = s
			}
		}
		if !candidate {
			continue
		}
		d := aliveDegree[v]
		if !found || score > best || (score == best && d > bestDeg) {
			best, bestV, bestDeg, found = score, v, d, true
		}
	}
	return bestV, found
}

// bruteForceStage2 scans the whole frontier computing M' per candidate.
func (st *runState) bruteForceStage2() (graph.Vertex, bool) {
	best := math.Inf(-1)
	var bestV graph.Vertex
	found := false
	for _, u := range st.frontierList {
		if !st.inFrontier(u) || st.isMember(u) || st.aliveDeg[u] <= 0 {
			continue
		}
		s := st.candidateScore(u)
		if s > best {
			best, bestV, found = s, u, true
		}
	}
	return bestV, found
}

// candidateScore returns M' for frontier candidate u, recomputing cin from
// scratch so the test does not trust the incremental counters.
func (st *runState) candidateScore(u graph.Vertex) float64 {
	g := st.g
	var cin int64
	var alive int64
	nbrs := g.Neighbors(u)
	eids := g.IncidentEdges(u)
	for i, w := range nbrs {
		if st.a.IsAssigned(eids[i]) {
			continue
		}
		alive++
		if st.isMember(w) {
			cin++
		}
	}
	return mPrime(st.ein, st.eout, cin, alive-cin)
}

// recomputeInvariants recomputes (ein, eout, per-vertex cin) from scratch for
// the current round; tests compare these against the incremental state.
func (st *runState) recomputeInvariants(k int) (ein, eout int64, cinOK bool) {
	g := st.g
	cinOK = true
	for id := 0; id < g.NumEdges(); id++ {
		if got, ok := st.a.PartitionOf(graph.EdgeID(id)); ok && got == k {
			ein++
		}
	}
	for v := 0; v < g.NumVertices(); v++ {
		u := graph.Vertex(v)
		if st.isMember(u) {
			continue
		}
		var cin int64
		nbrs := g.Neighbors(u)
		eids := g.IncidentEdges(u)
		for i, w := range nbrs {
			if st.a.IsAssigned(eids[i]) {
				continue
			}
			if st.isMember(w) {
				cin++
			}
		}
		eout += cin
		if cin > 0 {
			if !st.inFrontier(u) || int64(st.cin[u]) != cin {
				cinOK = false
			}
		}
	}
	return ein, eout, cinOK
}

// aliveStructureOK verifies the stage-I alive rows from scratch
// against the assignment: every alive row holds exactly the unassigned
// incident edges of its vertex (each arc carrying the right neighbour, with
// no duplicates), ordered [forward | backward] with the forward prefix
// holding exactly the alive higher-rank neighbours; every arc's twin link
// names an arc of the same edge with the endpoints swapped that links back;
// and the row length equals the incremental aliveDeg counter.
func (st *runState) aliveStructureOK() bool {
	g := st.g
	aa := st.alive
	for v := 0; v < g.NumVertices(); v++ {
		u := graph.Vertex(v)
		vn, ve := aa.row(u)
		if int32(len(vn)) != st.aliveDeg[u] || aa.nf[u] < 0 || aa.nf[u] > aa.n[u] {
			return false
		}
		seen := make(map[graph.EdgeID]bool, len(ve))
		for i, e := range ve {
			if st.a.IsAssigned(e) || seen[e] {
				return false
			}
			seen[e] = true
			w := g.Edge(e).Other(u)
			if vn[i] != w || (i < int(aa.nf[u])) != ranksAbove(w, u, g.Degree(w), g.Degree(u)) {
				return false
			}
			s := aa.off[u] + int64(i)
			t := int64(aa.tw[s])
			if t < aa.off[w] || t >= aa.off[w]+int64(aa.n[w]) ||
				int64(aa.tw[t]) != s || aa.eid[t] != e || aa.nbr[t] != u {
				return false
			}
		}
		alive := 0
		for _, e := range g.IncidentEdges(u) {
			if !st.a.IsAssigned(e) {
				alive++
			}
		}
		if alive != len(ve) {
			return false
		}
	}
	return true
}

// mu1HeapBounded reports whether the lazy score heap respects the
// maybeCompactMu1Heap bound: stale entries never outnumber the frontier
// list by more than 2x (plus the 64-entry small-heap allowance).
func (st *runState) mu1HeapBounded() bool {
	return len(st.mu1Heap) <= 2*len(st.frontierList)+64
}

// runLocalInvariantCheck runs TLP verifying the incremental ein/eout/cin
// state against brute-force recomputation after every absorption — plus the
// stage-I alive rows and the lazy-heap bound. Returns the number of steps
// where anything disagreed.
func runLocalInvariantCheck(g *graph.Graph, p int, opts Options) (bad int, err error) {
	a, err := partition.New(g.NumEdges(), p)
	if err != nil {
		return 0, err
	}
	m := g.NumEdges()
	if m == 0 {
		return 0, nil
	}
	capC := partition.Capacity(m, p)
	st := newRunState(g, a, opts)
	assigned := 0
	check := func(k int) {
		ein, eout, cinOK := st.recomputeInvariants(k)
		if ein != st.ein || eout != st.eout || !cinOK {
			bad++
		}
		if !st.aliveStructureOK() || !st.mu1HeapBounded() {
			bad++
		}
	}
	for k := 0; k < p && assigned < m; k++ {
		st.beginRound()
		seed, ok := st.pickSeed()
		if !ok {
			break
		}
		n, full := st.absorb(seed, k, capC)
		assigned += n
		if !full {
			continue
		}
		check(k)
		for int(st.ein) < capC && assigned < m {
			if st.eout == 0 {
				reseed, ok := st.pickSeed()
				if !ok {
					break
				}
				n, full := st.absorb(reseed, k, capC)
				assigned += n
				if !full {
					break
				}
				check(k)
				continue
			}
			var v graph.Vertex
			var okSel bool
			if st.ein <= st.eout {
				v, okSel = st.selectStage1()
			} else {
				v, okSel = st.selectStage2()
			}
			if !okSel {
				break
			}
			n, full := st.absorb(v, k, capC)
			assigned += n
			if !full {
				break
			}
			check(k)
		}
	}
	return bad, nil
}
