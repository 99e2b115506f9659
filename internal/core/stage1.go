package core

import (
	"github.com/graphpart/graphpart/internal/graph"
)

// Stage-I selection maximises mu_s1 (Eq. 7): the closeness of a frontier
// candidate v to the partition, taken as the best overlap ratio
// |N(v) ∩ N(j)| / |N(j)| over partition members j adjacent to v.
//
// Both modes score through one kernel, updateStage1Scores, which folds a
// member j into the scores of its frontier neighbours v, each gaining the
// term overlap(v,j)/|N(j)|, and keeps the best candidates in a lazy
// max-heap:
//
//   - Cached/incremental (default): j is folded once, when it is absorbed,
//     and the cached score is the running maximum of the terms observed.
//     Per absorption this costs O(deg(j) + sum of the forward alive degrees
//     of j's frontier neighbours), so a whole round stays within the
//     paper's O(L²d²) bound without rescanning the frontier every step.
//     Terms are frozen as evaluated (alive-degree drift after evaluation is
//     ignored).
//   - Exact (Options.Stage1Exact): before every pick, rescoreStage1 resets
//     the scores and refolds every member of the round, so each candidate is
//     scored on the current remaining graph: the paper's literal rule.

// scoreEntry is a lazy max-heap entry for Stage-I selection. deg is the
// candidate's alive degree at push time and only breaks ties.
type scoreEntry struct {
	score float64
	deg   int32
	v     graph.Vertex
}

// scoreHeap is a binary max-heap ordered by (score desc, deg desc, v asc).
type scoreHeap []scoreEntry

func (h scoreHeap) less(i, j int) bool {
	a, b := h[i], h[j]
	if a.score != b.score {
		return a.score > b.score
	}
	if a.deg != b.deg {
		return a.deg > b.deg
	}
	return a.v < b.v
}

func (h *scoreHeap) push(e scoreEntry) {
	*h = append(*h, e)
	i := len(*h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !(*h).less(i, parent) {
			break
		}
		(*h)[i], (*h)[parent] = (*h)[parent], (*h)[i]
		i = parent
	}
}

func (h *scoreHeap) pop() (scoreEntry, bool) {
	old := *h
	if len(old) == 0 {
		return scoreEntry{}, false
	}
	top := old[0]
	last := len(old) - 1
	old[0] = old[last]
	*h = old[:last]
	h.siftDown(0)
	return top, true
}

func (h scoreHeap) siftDown(i int) {
	for {
		l, r := 2*i+1, 2*i+2
		best := i
		if l < len(h) && h.less(l, best) {
			best = l
		}
		if r < len(h) && h.less(r, best) {
			best = r
		}
		if best == i {
			return
		}
		h[i], h[best] = h[best], h[i]
		i = best
	}
}

func (h scoreHeap) peek() (scoreEntry, bool) {
	if len(h) == 0 {
		return scoreEntry{}, false
	}
	return h[0], true
}

// selectStage1 returns the frontier candidate with the best mu_s1 score,
// ties going to the higher alive degree at push time, then the lower id. In
// exact mode every score is recomputed first.
func (st *runState) selectStage1() (graph.Vertex, bool) {
	if st.opts.stage1Policy() == PolicyMaxDegree {
		return st.selectStage1MaxDegree()
	}
	if st.opts.Stage1Exact {
		st.rescoreStage1()
	}
	for {
		e, ok := st.mu1Heap.peek()
		if !ok {
			return 0, false
		}
		if st.inFrontier(e.v) && !st.isMember(e.v) &&
			st.aliveDeg[e.v] > 0 && e.score == st.mu1Score[e.v] {
			return e.v, true
		}
		_, _ = st.mu1Heap.pop()
	}
}

// selectStage1MaxDegree is the PolicyMaxDegree ablation: absorb the frontier
// vertex with the highest remaining degree, ignoring closeness entirely.
func (st *runState) selectStage1MaxDegree() (graph.Vertex, bool) {
	var bestV graph.Vertex
	bestDeg := int32(-1)
	for _, u := range st.compactFrontier() {
		if st.aliveDeg[u] > bestDeg || (st.aliveDeg[u] == bestDeg && u < bestV) {
			bestV, bestDeg = u, st.aliveDeg[u]
		}
	}
	return bestV, bestDeg >= 0
}

// rescoreStage1 is the exact mode's step before each pick: it zeroes every
// live candidate's score, seeds a cleared heap with their 0-score entries
// and refolds every member of the round. Each score is then the maximum of
// the same terms over the same (candidate, member) pairs on the current
// remaining graph, and since every entry is pushed now, the heap's
// push-time degrees are current too.
func (st *runState) rescoreStage1() {
	st.mu1Heap = st.mu1Heap[:0]
	for _, u := range st.compactFrontier() {
		st.mu1Score[u] = 0
		st.mu1Heap.push(scoreEntry{score: 0, deg: st.aliveDeg[u], v: u})
	}
	for _, j := range st.members {
		st.updateStage1Scores(j)
	}
}

// compactFrontier drops absorbed and dead vertices from frontierList and
// returns the live candidates.
func (st *runState) compactFrontier() []graph.Vertex {
	w := 0
	for _, u := range st.frontierList {
		if st.inFrontier(u) && !st.isMember(u) && st.aliveDeg[u] > 0 {
			st.frontierList[w] = u
			w++
		}
	}
	st.frontierList = st.frontierList[:w]
	return st.frontierList
}

// updateStage1Scores folds member j into the mu_s1 scores of its frontier
// neighbours: each gains the candidate term overlap(v, j) / |N(j)| where
// N(·) is the alive neighbourhood. countTriangles produces every
// candidate's overlap in one pass over the forward prefixes of j's alive
// neighbours (DESIGN.md §13); the fold then updates scores and the heap in
// row order, resetting the counts as it goes.
func (st *runState) updateStage1Scores(j graph.Vertex) {
	if st.tri == nil {
		return // max-degree mode reads no overlaps
	}
	dj := st.aliveDeg[j]
	if dj <= 0 {
		return
	}
	w := st.kernelWatch()
	jn, _ := st.alive.row(j)
	st.countTriangles(jn)
	djf := float64(dj)
	var evals int64
	for _, v := range jn {
		cnt := st.tri[v]
		st.tri[v] = -1
		if st.isMember(v) {
			continue
		}
		evals++
		if score := float64(cnt) / djf; score > st.mu1Score[v] {
			st.mu1Score[v] = score
			st.mu1Heap.push(scoreEntry{score: score, deg: st.aliveDeg[v], v: v})
			st.maybeCompactMu1Heap()
		}
	}
	st.s1Evals += evals
	st.tIntersect += w.lap()
}

// countTriangles leaves tri[v] = |aliveN(j) ∩ aliveN(v)| for every v in
// j's alive row jn; the caller resets those entries to -1. Each alive edge
// v–x with both ends in jn closes the alive triangle j–v–x and lies in the
// forward prefix of exactly one of v and x, so scanning only forward
// prefixes finds each triangle once and credits both ends.
//
//graphpart:hotpath test=TestHotPathAllocs_Stage1Kernels
func (st *runState) countTriangles(jn []graph.Vertex) {
	tri := st.tri
	for _, v := range jn {
		tri[v] = 0
	}
	for _, v := range jn {
		var c int32
		for _, x := range st.alive.forward(v) {
			if tri[x] >= 0 {
				tri[x]++
				c++
			}
		}
		tri[v] += c
	}
}

// maybeCompactMu1Heap drops stale lazy-heap entries once they outnumber the
// plausible frontier by 2x, bounding heap growth at O(frontier): every live
// entry's vertex is on frontierList, so after compaction len(heap) <=
// len(frontierList). Staleness is permanent within a round (members stay
// members, dead stays dead, cached scores only increase), so removing stale
// entries eagerly is indistinguishable from selectStage1's lazy discards.
func (st *runState) maybeCompactMu1Heap() {
	if len(st.mu1Heap) <= 64 || len(st.mu1Heap) <= 2*len(st.frontierList) {
		return
	}
	live := st.mu1Heap[:0]
	for _, e := range st.mu1Heap {
		if st.inFrontier(e.v) && !st.isMember(e.v) &&
			st.aliveDeg[e.v] > 0 && e.score == st.mu1Score[e.v] {
			live = append(live, e)
		}
	}
	st.mu1Heap = live
	for i := len(live)/2 - 1; i >= 0; i-- {
		st.mu1Heap.siftDown(i)
	}
}
