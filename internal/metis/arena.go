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
	// slot[cu] is the position in row of the arc from the coarse vertex
	// being built to cu, or -1.
	slot []int32
	// row and rowW hold that vertex's arcs in first-touch order.
	row, rowW []int32
	// cursor is the transpose's write position per coarse row.
	cursor []int32
}

// fmScratch is refineFM's working memory.
type fmScratch struct {
	gain      []int64
	locked    []bool
	heaps     [2]gainHeap
	moveOrder []int32
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
