package metis

import "github.com/graphpart/graphpart/internal/invariants"

// Fiduccia-Mattheyses bisection refinement with indexed gain heaps.
//
// Each pass considers boundary vertices (plus any vertex whose gain changes
// during the pass), tentatively moving the best-gain movable vertex until
// both heaps empty, then rolls back to the best prefix. One heap per side
// lets the pass respect the balance constraint without discarding
// candidates: if moving side-0's top would overweight side 1, side-1's top
// is considered instead.
//
// A heap holds each vertex at most once, at its current gain: a neighbour's
// gain change updates its entry in place, so every top is live. That top is
// the unique maximum of (gain desc, v asc) over the unlocked queued
// vertices of its side, exactly the live top of a lazy heap that pushes a
// fresh entry per change and discards stale ones, so the move sequence is
// the same without the stale entries.

type gainEntry struct {
	gain int64
	v    int32
}

// Markers in fmScratch.pos for a vertex that is on no heap.
const (
	posAbsent = -1 // not queued in this pass
	posLocked = -2 // moved in this pass
)

// gainHeap is a max-heap by (gain desc, v asc) whose entries' slots are
// mirrored in pos: pos[h[i].v] == i.
type gainHeap []gainEntry

func heapsLess(a, b gainEntry) bool {
	if a.gain != b.gain {
		return a.gain > b.gain
	}
	return a.v < b.v
}

func (h gainHeap) swap(i, j int, pos []int32) {
	h[i], h[j] = h[j], h[i]
	pos[h[i].v], pos[h[j].v] = int32(i), int32(j)
}

func (h gainHeap) up(i int, pos []int32) {
	for i > 0 {
		p := (i - 1) / 2
		if !heapsLess(h[i], h[p]) {
			return
		}
		h.swap(i, p, pos)
		i = p
	}
}

func (h gainHeap) down(i int, pos []int32) {
	for {
		best := i
		if l := 2*i + 1; l < len(h) && heapsLess(h[l], h[best]) {
			best = l
		}
		if r := 2*i + 2; r < len(h) && heapsLess(h[r], h[best]) {
			best = r
		}
		if best == i {
			return
		}
		h.swap(i, best, pos)
		i = best
	}
}

// set gives unlocked u gain g, inserting u at the bottom if it is absent. h has
// capacity for every vertex of its side, so an insert never reallocates.
func (h *gainHeap) set(u int32, g int64, pos []int32) {
	i := int(pos[u])
	if i < 0 {
		i = len(*h)
		*h = (*h)[:i+1]
		pos[u] = int32(i)
	} else if g < (*h)[i].gain {
		(*h)[i].gain = g
		h.down(i, pos)
		return
	}
	(*h)[i] = gainEntry{gain: g, v: u}
	h.up(i, pos)
}

// popTop removes the top entry and locks its vertex.
func (h *gainHeap) popTop(pos []int32) {
	last := len(*h) - 1
	h.swap(0, last, pos)
	pos[(*h)[last].v] = posLocked
	*h = (*h)[:last]
	h.down(0, pos)
}

// refineFM improves the bisection in place. target0 is the desired side-0
// weight and tol the multiplicative imbalance allowance (>= 1). Its gain,
// position, heap and move-order buffers live in s and keep their capacity
// across calls.
//
// Only the first pass sweeps every row for its start gains. Each later pass
// starts from its predecessor's start gains with the kept moves replayed
// onto them, which equal a fresh sweep, so it seeds the same heaps and makes
// the same moves while reading only the kept vertices' rows.
//
//graphpart:hotpath test=TestHotPathAllocs_MetisLevel
func refineFM(w *wgraph, side []uint8, target0 int64, tol float64, maxPasses int, s *fmScratch) {
	n := w.numVertices()
	if n == 0 {
		return
	}
	target1 := w.totalVertexWeight() - target0
	maxW := [2]int64{int64(float64(target0) * tol), int64(float64(target1) * tol)}
	// Every pass rewrites gain[v] and pos[v] for all v before reading, and
	// pass 0 writes g0[v] and deg[v].
	s.reserve(n)
	gain, g0, deg, pos, heaps, moveOrder := s.gain, s.g0, s.deg, s.pos, &s.heaps, s.moveOrder

	for pass := 0; pass < maxPasses; pass++ {
		w0, w1 := sideWeights(w, side)
		weights := [2]int64{w0, w1}
		// Only a vertex on side s at the start of the pass can enter heap
		// s, so the two heaps split one n-entry buffer at side 0's count.
		n0 := 0
		for _, sv := range side {
			n0 += int(1 - sv)
		}
		heaps[0], heaps[1] = s.entries[:0:n0], s.entries[n0:n0:n]
		if pass > 0 && invariants.Enabled {
			assertStartGains(w, side, g0, deg)
		}
		// Seed with boundary vertices only, then heapify each side once.
		for v := int32(0); int(v) < n; v++ {
			if pass == 0 {
				g0[v], deg[v] = gainAndDegree(w, side, v)
			}
			g := g0[v]
			gain[v] = g
			pos[v] = posAbsent
			if g+deg[v] > 0 {
				h := &heaps[side[v]]
				pos[v] = int32(len(*h))
				*h = (*h)[:len(*h)+1]
				(*h)[pos[v]] = gainEntry{gain: g, v: v}
			}
		}
		for _, h := range heaps {
			for i := len(h)/2 - 1; i >= 0; i-- {
				h.down(i, pos)
			}
		}
		moves := 0
		var cumGain, bestGain int64
		bestPrefix := 0
		for {
			// Take the better top that balance lets move: moving from
			// side s adds weight to side 1-s.
			var movable [2]bool
			for sd, h := range heaps {
				movable[sd] = len(h) > 0 && weights[1-sd]+int64(w.vwgt[h[0].v]) <= maxW[1-sd]
			}
			from := 0
			if movable[1] && (!movable[0] || heapsLess(heaps[1][0], heaps[0][0])) {
				from = 1
			} else if !movable[0] {
				break
			}
			v := heaps[from][0].v
			heaps[from].popTop(pos)
			vw := int64(w.vwgt[v])
			side[v] = uint8(1 - from)
			weights[from] -= vw
			weights[1-from] += vw
			cumGain += gain[v]
			moveOrder[moves] = v
			moves++
			if cumGain > bestGain {
				bestGain = cumGain
				bestPrefix = moves
			}
			// Update neighbour gains, queueing those not yet queued.
			nbrs, wts := w.neighbors(v)
			for i, u := range nbrs {
				if pos[u] == posLocked {
					continue
				}
				if side[u] == side[v] {
					gain[u] -= 2 * int64(wts[i])
				} else {
					gain[u] += 2 * int64(wts[i])
				}
				heaps[side[u]].set(u, gain[u], pos)
			}
			// A long losing streak on a large level will not recover;
			// stop the pass early.
			if moves-bestPrefix > 256 {
				break
			}
		}
		for i := moves - 1; i >= bestPrefix; i-- {
			v := moveOrder[i]
			side[v] = 1 - side[v]
		}
		if invariants.Enabled {
			assertHeaps(heaps, pos, gain, side)
		}
		if bestGain <= 0 || pass == maxPasses-1 {
			break
		}
		replayKept(w, side, g0, moveOrder[:bestPrefix])
	}
}

// replayKept turns g0 from the pass-start gains into the gains of side, the
// pass-start bisection with kept moved. A pass moves each vertex at most
// once, so flipping kept back restores the pass-start sides. Redoing the
// moves in order then applies the move loop's own update to every
// neighbour: a moved vertex's gain changes sign, and each neighbour's moves
// by twice the arc weight.
func replayKept(w *wgraph, side []uint8, g0 []int64, kept []int32) {
	for _, v := range kept {
		side[v] ^= 1
	}
	for _, v := range kept {
		side[v] ^= 1
		g0[v] = -g0[v]
		nbrs, wts := w.neighbors(v)
		for i, u := range nbrs {
			if side[u] == side[v] {
				g0[u] -= 2 * int64(wts[i])
			} else {
				g0[u] += 2 * int64(wts[i])
			}
		}
	}
}

// assertStartGains checks, at the start of a pass that did not sweep, that
// every vertex's seeded gain and boundary flag equal a fresh sweep of side.
// Assertf is reached only on a violation, so a passing check does not
// allocate.
func assertStartGains(w *wgraph, side []uint8, g0, deg []int64) {
	for v := int32(0); int(v) < len(side); v++ {
		g, boundary := gainAndBoundary(w, side, v)
		if g0[v] != g || (g0[v]+deg[v] > 0) != boundary {
			invariants.Assertf(false, "fm pass start: vertex %d seeded with gain %d, boundary %v; a sweep gives %d, %v",
				v, g0[v], g0[v]+deg[v] > 0, g, boundary)
		}
	}
}

// assertHeaps checks, after a pass, that each heap is ordered, that pos
// indexes it, and that its entries carry their vertices' current gains and
// sides. Assertf is reached only on a violation, so a passing check does
// not allocate.
func assertHeaps(heaps *[2]gainHeap, pos []int32, gain []int64, side []uint8) {
	for s, h := range heaps {
		for i, e := range h {
			if pos[e.v] != int32(i) || e.gain != gain[e.v] || side[e.v] != uint8(s) ||
				(i > 0 && heapsLess(e, h[(i-1)/2])) {
				invariants.Assertf(false, "fm heap %d slot %d: entry %+v, pos %d, gain %d, side %d",
					s, i, e, pos[e.v], gain[e.v], side[e.v])
			}
		}
	}
}

// gainAndDegree returns v's move gain and weighted degree; v lies on the cut
// iff their sum is positive.
func gainAndDegree(w *wgraph, side []uint8, v int32) (gain, deg int64) {
	nbrs, wts := w.neighbors(v)
	for i, u := range nbrs {
		wt := int64(wts[i])
		deg += wt
		if side[u] == side[v] {
			gain -= wt
		} else {
			gain += wt
		}
	}
	return gain, deg
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
