package core

import (
	"time"

	"github.com/graphpart/graphpart/internal/graph"
	"github.com/graphpart/graphpart/internal/partition"
	"github.com/graphpart/graphpart/internal/rng"
)

// runState holds the whole-run bookkeeping shared by all rounds. The
// per-round state (membership, frontier) is reset cheaply between rounds
// with epoch stamps rather than reallocation.
type runState struct {
	g    *graph.Graph
	a    *partition.Assignment
	rand *rng.RNG
	opts Options

	// aliveDeg[v] is the number of incident edges not yet assigned to any
	// partition — the vertex degree in the "remaining graph".
	aliveDeg []int32
	// left is the number of edges not yet assigned.
	left int

	// alivePool is a lazily-compacted pool of vertices that may still
	// have alive edges; seed selection pops random entries and discards
	// dead ones.
	alivePool []graph.Vertex

	// round is the current round number (1-based); epoch arrays compare
	// against it so that resetting between rounds is O(1).
	round int32

	// memberEpoch[v] == round means v is in the current partition P_k.
	memberEpoch []int32
	// frontierEpoch[v] == round means v is in N(P_k), the frontier.
	frontierEpoch []int32
	// cin[v] is the number of alive edges between v and P_k members;
	// valid only while frontierEpoch[v] == round.
	cin []int32

	// frontierList enumerates the current frontier (may contain vertices
	// absorbed later in the round; membership is re-checked on scan).
	frontierList []graph.Vertex

	// Stage II bucket structure: buckets[c] is a lazy min-heap over
	// (cout, v) of frontier vertices whose cin was c at push time. Buckets
	// are built lazily: touchFrontier only feeds them once bucketsLive is
	// set by the first stage-II selection of the round (rebuildBuckets), so
	// stage-I growth pays no bucket maintenance at all.
	buckets     []coutHeap
	maxCin      int32
	bucketsLive bool
	// Stage I score cache and lazy max-heap (see stage1.go).
	mu1Score []float64
	mu1Heap  scoreHeap

	// Stage-I scoring state (DESIGN.md §13): the twin-linked alive
	// adjacency, and the per-vertex triangle counts — tri[x] is -1 except
	// while updateStage1Scores scores a row containing x.
	alive *aliveAdj
	tri   []int32

	// members lists the current round's members in absorption order, for
	// Stage1Exact runs only, which refold them all before every stage-I
	// pick.
	members []graph.Vertex

	// s1Evals counts stage-I candidate evaluations (one per candidate term
	// folded); it feeds KernelCounts.Scan.
	s1Evals int64

	// Per-round wall-clock accumulators for edge retirement and scoring,
	// only advanced while telemetry records; flushed as tlp.s1.* trace
	// segments at round end.
	tCompact, tIntersect time.Duration

	// ein/eout are |E(P_k)| and |E_out(P_k)| of the current round's
	// partition, maintained incrementally.
	ein, eout int64
}

func newRunState(g *graph.Graph, a *partition.Assignment, opts Options) *runState {
	n := g.NumVertices()
	st := &runState{
		g:             g,
		a:             a,
		rand:          rng.New(opts.Seed),
		opts:          opts,
		aliveDeg:      make([]int32, n),
		left:          g.NumEdges(),
		memberEpoch:   make([]int32, n),
		frontierEpoch: make([]int32, n),
		cin:           make([]int32, n),
		mu1Score:      make([]float64, n),
	}
	st.alivePool = make([]graph.Vertex, 0, n)
	for v := 0; v < n; v++ {
		d := int32(g.Degree(graph.Vertex(v)))
		st.aliveDeg[v] = d
		if d > 0 {
			st.alivePool = append(st.alivePool, graph.Vertex(v))
		}
	}
	st.alive = newAliveAdj(g)
	if opts.stage1Policy() != PolicyMaxDegree { // max-degree reads no overlaps
		st.tri = make([]int32, n)
		for v := range st.tri {
			st.tri[v] = -1
		}
	}
	return st
}

// beginRound resets the per-round state.
func (st *runState) beginRound() {
	st.round++
	st.frontierList = st.frontierList[:0]
	for i := range st.buckets {
		st.buckets[i] = st.buckets[i][:0]
	}
	st.maxCin = 0
	st.bucketsLive = false
	st.mu1Heap = st.mu1Heap[:0]
	st.members = st.members[:0]
	st.ein = 0
	st.eout = 0
}

// pickSeed returns a uniformly random vertex that still has alive edges, or
// false when none remain.
func (st *runState) pickSeed() (graph.Vertex, bool) {
	for len(st.alivePool) > 0 {
		i := st.rand.Intn(len(st.alivePool))
		v := st.alivePool[i]
		if st.aliveDeg[v] > 0 && st.memberEpoch[v] != st.round {
			return v, true
		}
		// Dead or already a member this round: swap-remove dead ones,
		// skip members (they stay for later rounds).
		if st.aliveDeg[v] <= 0 {
			last := len(st.alivePool) - 1
			st.alivePool[i] = st.alivePool[last]
			st.alivePool = st.alivePool[:last]
		} else {
			// Member with alive edges: rare (partial absorption);
			// try another index but avoid spinning forever by
			// scanning once.
			if w, ok := st.scanSeed(); ok {
				return w, true
			}
			return 0, false
		}
	}
	return 0, false
}

// scanSeed linearly searches the pool for a non-member alive vertex.
func (st *runState) scanSeed() (graph.Vertex, bool) {
	for _, v := range st.alivePool {
		if st.aliveDeg[v] > 0 && st.memberEpoch[v] != st.round {
			return v, true
		}
	}
	return 0, false
}

// isMember reports whether v belongs to the current round's partition.
func (st *runState) isMember(v graph.Vertex) bool { return st.memberEpoch[v] == st.round }

// inFrontier reports whether v is currently in N(P_k).
func (st *runState) inFrontier(v graph.Vertex) bool { return st.frontierEpoch[v] == st.round }

// touchFrontier increments cin[u], entering u into the frontier structures.
func (st *runState) touchFrontier(u graph.Vertex) {
	if !st.inFrontier(u) {
		st.frontierEpoch[u] = st.round
		st.cin[u] = 0
		st.frontierList = append(st.frontierList, u)
		// Fresh frontier entry: zero the stage-I score cache and seed
		// the lazy heap so all-zero-score frontiers (trees) still
		// yield a candidate, tie-broken by alive degree.
		st.mu1Score[u] = 0
		st.mu1Heap.push(scoreEntry{score: 0, deg: st.aliveDeg[u], v: u})
	}
	st.cin[u]++
	if st.bucketsLive {
		st.pushBucket(u)
	}
}

// rebuildBuckets populates the stage-II buckets from the live frontier and
// switches touchFrontier into push-through mode for the rest of the round.
// Selection is unchanged versus eager maintenance: under eager pushes a
// vertex's latest push always matches its current (cin, cout) — cout cannot
// drift without a cin change while the vertex stays a non-member — so each
// bucket's minimum valid entry is the same vertex either way.
func (st *runState) rebuildBuckets() {
	st.bucketsLive = true
	for _, u := range st.frontierList {
		if !st.inFrontier(u) || st.isMember(u) || st.aliveDeg[u] <= 0 || st.cin[u] <= 0 {
			continue
		}
		st.pushBucket(u)
	}
}

// coutHeap is a binary min-heap of (cout, v) entries ordered by cout then
// vertex id (for determinism). Entries are validated lazily against the
// live cin/frontier state on pop.
type coutHeap []coutEntry

type coutEntry struct {
	cout int32
	v    graph.Vertex
}

func (h coutHeap) less(i, j int) bool {
	if h[i].cout != h[j].cout {
		return h[i].cout < h[j].cout
	}
	return h[i].v < h[j].v
}

func (h *coutHeap) push(e coutEntry) {
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

func (h *coutHeap) pop() (coutEntry, bool) {
	old := *h
	if len(old) == 0 {
		return coutEntry{}, false
	}
	top := old[0]
	last := len(old) - 1
	old[0] = old[last]
	*h = old[:last]
	// Sift down.
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < last && (*h).less(l, smallest) {
			smallest = l
		}
		if r < last && (*h).less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			break
		}
		(*h)[i], (*h)[smallest] = (*h)[smallest], (*h)[i]
		i = smallest
	}
	return top, true
}

func (h coutHeap) peek() (coutEntry, bool) {
	if len(h) == 0 {
		return coutEntry{}, false
	}
	return h[0], true
}

// pushBucket records u's current (cin, cout) in the stage-II buckets.
func (st *runState) pushBucket(u graph.Vertex) {
	c := st.cin[u]
	for int32(len(st.buckets)) <= c {
		st.buckets = append(st.buckets, nil)
	}
	if c > st.maxCin {
		st.maxCin = c
	}
	st.buckets[c].push(coutEntry{cout: st.aliveDeg[u] - st.cin[u], v: u})
}

// validBucketEntry reports whether a popped/peeked entry still describes a
// live frontier candidate in bucket c.
func (st *runState) validBucketEntry(e coutEntry, c int32) bool {
	return st.inFrontier(e.v) &&
		!st.isMember(e.v) &&
		st.cin[e.v] == c &&
		st.aliveDeg[e.v]-st.cin[e.v] == e.cout
}
