package metis

// Fiduccia-Mattheyses bisection refinement with lazy gain heaps.
//
// Each pass considers boundary vertices (plus any vertex whose gain changes
// during the pass), tentatively moving the best-gain movable vertex until
// both heaps empty, then rolls back to the best prefix. One heap per side
// lets the pass respect the balance constraint without discarding
// candidates: if moving side-0's top would overweight side 1, side-1's top
// is considered instead.

type gainEntry struct {
	gain int64
	v    int32
}

// gainHeap is a max-heap by (gain desc, v asc), with lazy invalidation: an
// entry is live iff it matches the current gain[] value and the vertex is
// unlocked and still on the heap's side.
type gainHeap []gainEntry

func (h gainHeap) less(i, j int) bool {
	if h[i].gain != h[j].gain {
		return h[i].gain > h[j].gain
	}
	return h[i].v < h[j].v
}

func (h *gainHeap) push(e gainEntry) {
	*h = append(*h, e)
	i := len(*h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !(*h).less(i, p) {
			break
		}
		(*h)[i], (*h)[p] = (*h)[p], (*h)[i]
		i = p
	}
}

func (h *gainHeap) pop() (gainEntry, bool) {
	old := *h
	if len(old) == 0 {
		return gainEntry{}, false
	}
	top := old[0]
	last := len(old) - 1
	old[0] = old[last]
	*h = old[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		best := i
		if l < last && (*h).less(l, best) {
			best = l
		}
		if r < last && (*h).less(r, best) {
			best = r
		}
		if best == i {
			break
		}
		(*h)[i], (*h)[best] = (*h)[best], (*h)[i]
		i = best
	}
	return top, true
}

// refineFM improves the bisection in place. target0 is the desired side-0
// weight and tol the multiplicative imbalance allowance (>= 1). Its gain,
// lock, heap and move-order buffers live in s and keep their capacity
// across calls.
//
//graphpart:hotpath test=TestHotPathAllocs_MetisLevel
func refineFM(w *wgraph, side []uint8, target0 int64, tol float64, maxPasses int, s *fmScratch) {
	n := w.numVertices()
	if n == 0 {
		return
	}
	total := w.totalVertexWeight()
	target1 := total - target0
	maxW := [2]int64{
		int64(float64(target0) * tol),
		int64(float64(target1) * tol),
	}
	// Every pass rewrites gain[v] and locked[v] for all v before reading.
	s.gain = grow(s.gain, n)
	s.locked = grow(s.locked, n)
	gain, locked, heaps := s.gain, s.locked, &s.heaps
	moveOrder := s.moveOrder[:0]

	for pass := 0; pass < maxPasses; pass++ {
		w0, w1 := sideWeights(w, side)
		weights := [2]int64{w0, w1}
		heaps[0] = heaps[0][:0]
		heaps[1] = heaps[1][:0]
		clear(locked)
		// Seed with boundary vertices only.
		for v := int32(0); int(v) < n; v++ {
			g, boundary := gainAndBoundary(w, side, v)
			gain[v] = g
			if boundary {
				heaps[side[v]].push(gainEntry{gain: g, v: v})
			}
		}
		moveOrder = moveOrder[:0]
		var cumGain, bestGain int64
		bestPrefix := 0
		for {
			v, ok := popBest(heaps, gain, locked, side, weights, maxW, w)
			if !ok {
				break
			}
			from := side[v]
			vw := int64(w.vwgt[v])
			side[v] = 1 - from
			weights[from] -= vw
			weights[1-from] += vw
			locked[v] = true
			cumGain += gain[v]
			moveOrder = append(moveOrder, v)
			if cumGain > bestGain {
				bestGain = cumGain
				bestPrefix = len(moveOrder)
			}
			// Update neighbour gains and (re)queue them.
			nbrs, wts := w.neighbors(v)
			for i, u := range nbrs {
				if locked[u] {
					continue
				}
				if side[u] == side[v] {
					gain[u] -= 2 * int64(wts[i])
				} else {
					gain[u] += 2 * int64(wts[i])
				}
				heaps[side[u]].push(gainEntry{gain: gain[u], v: u})
			}
			// A long losing streak on a large level will not recover;
			// stop the pass early.
			if len(moveOrder)-bestPrefix > 256 {
				break
			}
		}
		for i := len(moveOrder) - 1; i >= bestPrefix; i-- {
			v := moveOrder[i]
			side[v] = 1 - side[v]
		}
		if bestGain <= 0 {
			break
		}
	}
	s.moveOrder = moveOrder
}

// popBest returns the best movable unlocked vertex across both heaps,
// respecting the balance bounds, discarding stale entries as it goes.
func popBest(heaps *[2]gainHeap, gain []int64, locked []bool, side []uint8,
	weights [2]int64, maxW [2]int64, w *wgraph) (int32, bool) {
	// Surface a live top on each heap.
	var tops [2]gainEntry
	var has [2]bool
	for s := 0; s < 2; s++ {
		for len(heaps[s]) > 0 {
			e := heaps[s][0]
			if locked[e.v] || side[e.v] != uint8(s) || gain[e.v] != e.gain {
				_, _ = heaps[s].pop()
				continue
			}
			tops[s], has[s] = e, true
			break
		}
	}
	// Filter by balance: moving from side s adds weight to side 1-s.
	var movable [2]bool
	for s := 0; s < 2; s++ {
		movable[s] = has[s] && weights[1-s]+int64(w.vwgt[tops[s].v]) <= maxW[1-s]
	}
	m0, m1 := movable[0], movable[1]
	switch {
	case m0 && m1:
		s := 0
		if heapsLess(tops[1], tops[0]) {
			s = 1
		}
		_, _ = heaps[s].pop()
		return tops[s].v, true
	case m0:
		_, _ = heaps[0].pop()
		return tops[0].v, true
	case m1:
		_, _ = heaps[1].pop()
		return tops[1].v, true
	default:
		return 0, false
	}
}

func heapsLess(a, b gainEntry) bool {
	if a.gain != b.gain {
		return a.gain > b.gain
	}
	return a.v < b.v
}

// gainAndBoundary returns v's move gain and whether it lies on the cut.
func gainAndBoundary(w *wgraph, side []uint8, v int32) (int64, bool) {
	var ext, internal int64
	nbrs, wts := w.neighbors(v)
	for i, u := range nbrs {
		if side[u] == side[v] {
			internal += int64(wts[i])
		} else {
			ext += int64(wts[i])
		}
	}
	return ext - internal, ext > 0
}
