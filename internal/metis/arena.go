package metis

// arena is the scratch one VertexPartition call reuses across every level of
// every bisection. The first (largest) bisection sizes each buffer; later
// levels and bisections work in the same memory, so a steady-state level of
// the V-cycle allocates nothing.
type arena struct {
	// levels is the hierarchy of the bisection in progress. levels[0].g
	// borrows the bisection's input; the coarse graphs levels[i].g (i >= 1)
	// and every coarseOf are arena-owned. A finished bisection's levels
	// are dead once it returns its side, so the next one rebuilds into them.
	levels []level
	match  []int32
	order  []int
	cs     contractScratch
	fm     fmScratch
	// sides ping-pongs the bisection projected from one level to the next.
	sides [2][]uint8
	// newID maps a vertex of the bisected graph to its id in the induced
	// subgraph of its side.
	newID []int32
}

// contractScratch is contract's working memory.
type contractScratch struct {
	// slot[cu] is the position in adj of the arc from the coarse vertex
	// being built to cu, or -1.
	slot []int32
}

// fmScratch is refineFM's working memory.
type fmScratch struct {
	gain []int64
	// g0[v] is v's gain at the start of the current pass and deg[v] its
	// weighted degree; v is on the boundary iff g0[v]+deg[v] > 0. Pass 0
	// sweeps them, and each later pass replays its predecessor's kept
	// moves onto g0.
	g0, deg []int64
	// pos[v] is v's slot in its side's heap, or posAbsent / posLocked.
	pos []int32
	// heaps[s] is side s's gain heap; both are windows of entries.
	heaps     [2]gainHeap
	entries   []gainEntry
	moveOrder []int32
}

// reserve sizes every buffer for an n-vertex level. bisect reserves the
// finest level up front, so the V-cycle's coarse-to-fine refinement does
// not regrow them level by level; refineFM reserves its own level.
func (s *fmScratch) reserve(n int) {
	s.gain, s.pos, s.moveOrder = grow(s.gain, n), grow(s.pos, n), grow(s.moveOrder, n)
	s.g0, s.deg = grow(s.g0, n), grow(s.deg, n)
	s.entries = grow(s.entries, n)
}

// grow returns s resliced to length n, reallocating only when its capacity
// is short. Contents are unspecified; callers overwrite what they read.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// level returns rung i of the hierarchy, giving it an arena-owned coarse
// graph the first time any bisection coarsens that deep.
func (a *arena) level(i int) *level {
	for len(a.levels) <= i {
		a.levels = append(a.levels, level{g: new(wgraph)})
	}
	return &a.levels[i]
}
