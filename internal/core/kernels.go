package core

import (
	"math/bits"
	"sort"

	"github.com/graphpart/graphpart/internal/graph"
)

// Stage-I pair-overlap kernels. Every kernel computes the same integer,
//
//	overlap(a, b) = |aliveN(a) ∩ aliveN(b)|,
//
// the count of common neighbours x with both edges (a,x) and (b,x) still
// unassigned, so kernel selection can never change the partitioning — only
// how fast the count is produced. They serve only the callers that need
// one pair at a time: Stage1Exact's computeMu1 and OverlapProbe. The
// default cached path counts every candidate of an absorption at once
// (updateStage1Scores) and reports its evaluations as kernelScan.
// Selection is a deterministic function of alive degrees and hub flags
// (DESIGN.md §13):
//
//   - word:   both endpoints are hubs and their alive-neighbourhood bitsets
//     are shorter than either alive row — AND the bitsets word-at-a-time and
//     popcount. O(n/64).
//   - bitset: one endpoint is a hub — scan the other's compacted alive row
//     testing bits in the hub's persistent bitset. O(min row).
//   - gallop: the candidate row is far longer than the marked row — iterate
//     the short alive row and binary-search each neighbour in the long
//     side's sorted CSR row, checking that edge's assignment bit. O(short ·
//     log deg(long)).
//   - scan:   the default — scan the candidate's compacted alive row testing
//     epoch stamps left by markAlive. O(row).
type kernelKind uint8

const (
	kernelScan kernelKind = iota
	kernelBitset
	kernelWord
	kernelGallop
	numKernels
)

// gallopCutoff is the alive-degree ratio long/short above which binary
// searching the long side's CSR row beats scanning it: the gallop costs
// O(short·log(deg)) against the scan's O(long), and log2(deg) stays under
// ~16 for every graph this repository generates.
const gallopCutoff = 16

// hubMinDegree floors the hub threshold so low-degree vertices never pay
// bitset maintenance a plain scan beats. 32 keeps the memory bound intact:
// with floor f, total bitset bytes are ≤ mn/(4f), and the floor only binds
// while n < 64f, where mn/(4f) < 16m.
const hubMinDegree = 32

// hubDegreeThreshold returns the full-CSR degree at or above which a vertex
// gets a persistent alive-neighbourhood bitset. The n/64 term bounds total
// bitset memory: vertices of degree ≥ n/64 number at most 2m/(n/64), each
// bitset is n/64 words, so all bitsets together stay ≤ 2m words (16m bytes).
func hubDegreeThreshold(n int) int {
	t := n / 64
	if t < hubMinDegree {
		t = hubMinDegree
	}
	return t
}

// initPairKernels allocates the pair kernels' state: the mark stamps and
// the persistent alive-neighbourhood bitset of every hub (degree ≥
// hubDegreeThreshold). Only Stage1Exact runs and OverlapProbe need pair
// overlaps; the default cached path counts triangles instead
// (updateStage1Scores) and never builds these. All edges are alive at
// construction, so bits mirror the CSR rows; killSlot keeps them current.
func (st *runState) initPairKernels() {
	g := st.g
	n := g.NumVertices()
	st.markStamp = make([]int32, n)
	st.hubThreshold = hubDegreeThreshold(n)
	st.hubWords = (n + 63) / 64
	st.hubBits = make([][]uint64, n)
	for v := 0; v < n; v++ {
		if g.Degree(graph.Vertex(v)) < st.hubThreshold {
			continue
		}
		w := make([]uint64, st.hubWords)
		for _, u := range g.Neighbors(graph.Vertex(v)) {
			w[u>>6] |= 1 << (uint(u) & 63)
		}
		st.hubBits[v] = w
	}
}

// killSlot retires the assigned edge whose arc sits at slot s of v's alive
// row from every Stage-I structure: both endpoint rows (through the twin
// link) and, when the pair kernels are built, hub endpoints' bitsets.
//
//graphpart:hotpath test=TestHotPathAllocs_Stage1Kernels
func (st *runState) killSlot(v graph.Vertex, s int64) {
	u := st.alive.nbr[s]
	st.alive.kill(v, s)
	if st.hubBits == nil {
		return
	}
	if w := st.hubBits[v]; w != nil {
		w[u>>6] &^= 1 << (uint(u) & 63)
	}
	if w := st.hubBits[u]; w != nil {
		w[v>>6] &^= 1 << (uint(v) & 63)
	}
}

// killEdge retires edge e by id, finding its arc in the U endpoint's row.
// The partitioning loop always knows the slot and calls killSlot; this
// serves the probe and tests that retire arbitrary edges.
func (st *runState) killEdge(e graph.EdgeID) {
	u := st.g.Edge(e).U
	st.killSlot(u, st.alive.slotOf(u, e))
}

// markAlive stamps a's alive neighbourhood for the scan kernel and returns
// the mark, or 0 when a is a hub (its persistent bitset already answers
// membership and no stamping is needed).
//
//graphpart:hotpath test=TestHotPathAllocs_Stage1Kernels
func (st *runState) markAlive(a graph.Vertex) int32 {
	if st.hubBits[a] != nil {
		return 0
	}
	mark := st.nextMark()
	an, _ := st.alive.row(a)
	for _, u := range an {
		st.markStamp[u] = mark
	}
	return mark
}

// overlapAlive dispatches the cheapest exact kernel for overlap(a, b).
// Precondition: markAlive(a) was called with the returned mark (hubs need no
// marks).
//
//graphpart:hotpath test=TestHotPathAllocs_Stage1Kernels
func (st *runState) overlapAlive(a, b graph.Vertex, mark int32) (int, kernelKind) {
	da, db := int(st.alive.n[a]), int(st.alive.n[b])
	wa, wb := st.hubBits[a], st.hubBits[b]
	if wa != nil && wb != nil && st.hubWords < da && st.hubWords < db {
		return overlapWords(wa, wb), kernelWord
	}
	if wb != nil && da < db {
		return st.scanRowBits(a, wb), kernelBitset
	}
	if wa != nil {
		if db > da*gallopCutoff {
			return st.gallopRows(a, b), kernelGallop
		}
		return st.scanRowBits(b, wa), kernelBitset
	}
	if db > da*gallopCutoff {
		return st.gallopRows(a, b), kernelGallop
	}
	return st.scanRowStamp(b, mark), kernelScan
}

// overlapWords ANDs two alive-neighbourhood bitsets word-at-a-time.
func overlapWords(wa, wb []uint64) int {
	cnt := 0
	for i, w := range wa {
		cnt += bits.OnesCount64(w & wb[i])
	}
	return cnt
}

// scanRowBits counts alive neighbours of x present in the hub bitset w.
func (st *runState) scanRowBits(x graph.Vertex, w []uint64) int {
	xn, _ := st.alive.row(x)
	cnt := 0
	for _, u := range xn {
		cnt += int(w[u>>6] >> (uint(u) & 63) & 1)
	}
	return cnt
}

// scanRowStamp counts alive neighbours of x carrying the given mark.
func (st *runState) scanRowStamp(x graph.Vertex, mark int32) int {
	xn, _ := st.alive.row(x)
	cnt := 0
	for _, u := range xn {
		if st.markStamp[u] == mark {
			cnt++
		}
	}
	return cnt
}

// gallopRows iterates the (short) alive row of a, binary-searching each
// neighbour in b's sorted full CSR row and testing that edge's assignment
// bit — overlap without touching b's long row or any marks.
func (st *runState) gallopRows(a, b graph.Vertex) int {
	g := st.g
	an, _ := st.alive.row(a)
	bn := g.Neighbors(b)
	be := g.IncidentEdges(b)
	cnt := 0
	for _, x := range an {
		i := sort.Search(len(bn), func(i int) bool { return bn[i] >= x })
		if i < len(bn) && bn[i] == x && !st.a.IsAssigned(be[i]) {
			cnt++
		}
	}
	return cnt
}
