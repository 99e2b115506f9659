package core

import (
	"math"

	"github.com/graphpart/graphpart/internal/graph"
)

// selectStage2 picks the Stage-II optimal vertex: the frontier candidate
// maximising mu_s2 = 1 - 1/(1+ΔM) (Eq. 9). mu_s2 is monotone in ΔM, and ΔM
// is monotone in the post-absorption modularity
//
//	M'(P_k) = (E + cin(v)) / (Eout - cin(v) + cout(v)),
//
// so maximising M' is equivalent and cheaper. For fixed cin, M' is strictly
// decreasing in cout, so the per-cin minimum-cout candidate dominates its
// bucket; the scan over cin buckets (descending, so ties resolve toward the
// better-connected candidate) therefore finds the exact argmax without
// touching every frontier vertex.
func (st *runState) selectStage2() (graph.Vertex, bool) {
	if !st.bucketsLive {
		st.rebuildBuckets()
	}
	bestScore := math.Inf(-1)
	var bestV graph.Vertex
	found := false
	highest := int32(0) // highest non-empty bucket seen; shrinks maxCin
	for c := st.maxCin; c >= 1; c-- {
		if int(c) >= len(st.buckets) {
			continue
		}
		if len(st.buckets[c]) > 0 && highest == 0 {
			highest = c
		}
		h := &st.buckets[c]
		var cand coutEntry
		okCand := false
		for {
			e, ok := h.peek()
			if !ok {
				break
			}
			if st.validBucketEntry(e, c) {
				cand, okCand = e, true
				break
			}
			_, _ = h.pop() // stale entry: discard permanently
		}
		if !okCand {
			continue
		}
		score := mPrime(st.ein, st.eout, int64(c), int64(cand.cout))
		if score > bestScore {
			bestScore, bestV, found = score, cand.v, true
			if math.IsInf(score, 1) {
				// Absorbing this vertex removes every external
				// edge; nothing can beat it.
				break
			}
		}
	}
	if highest < st.maxCin {
		st.maxCin = highest
	}
	return bestV, found
}

// mPrime returns the modularity the partition would have after absorbing a
// candidate with the given cin/cout, or +Inf when no external edges would
// remain.
func mPrime(ein, eout, cin, cout int64) float64 {
	denom := eout - cin + cout
	if denom <= 0 {
		return math.Inf(1)
	}
	return float64(ein+cin) / float64(denom)
}
