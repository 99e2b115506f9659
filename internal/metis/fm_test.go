package metis

import (
	"fmt"
	"slices"
	"testing"

	"github.com/graphpart/graphpart/internal/graph"
	"github.com/graphpart/graphpart/internal/rng"
)

// lazyHeap is the max-heap by (gain desc, v asc) with lazy invalidation that
// the indexed gain heaps replaced: a vertex may sit in it several times, and
// an entry is live iff it matches the current gain[] value and the vertex is
// unlocked and still on the heap's side.
type lazyHeap []gainEntry

func (h lazyHeap) less(i, j int) bool { return lazyLess(h[i], h[j]) }

func lazyLess(a, b gainEntry) bool {
	if a.gain != b.gain {
		return a.gain > b.gain
	}
	return a.v < b.v
}

func (h *lazyHeap) push(e gainEntry) {
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

func (h *lazyHeap) pop() {
	old := *h
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
}

// refineFMReference is the lazy-heap FM refinement refineFM replaced: every
// neighbour gain change pushes a fresh entry, and popping discards the stale
// ones, and every pass sweeps every row for its start gains. It is the oracle
// the indexed heaps and the replayed start gains must match move for move.
// It returns the number of passes that started after a pass with positive
// best gain, the passes whose start gains refineFM replays.
func refineFMReference(w *wgraph, side []uint8, target0 int64, tol float64, maxPasses int) (replayed int) {
	n := w.numVertices()
	if n == 0 {
		return 0
	}
	target1 := w.totalVertexWeight() - target0
	maxW := [2]int64{int64(float64(target0) * tol), int64(float64(target1) * tol)}
	gain := make([]int64, n)
	locked := make([]bool, n)
	var heaps [2]lazyHeap
	for pass := 0; pass < maxPasses; pass++ {
		if pass > 0 {
			replayed++
		}
		w0, w1 := sideWeights(w, side)
		weights := [2]int64{w0, w1}
		heaps[0], heaps[1] = heaps[0][:0], heaps[1][:0]
		clear(locked)
		for v := int32(0); int(v) < n; v++ {
			g, boundary := gainAndBoundary(w, side, v)
			gain[v] = g
			if boundary {
				heaps[side[v]].push(gainEntry{gain: g, v: v})
			}
		}
		var moveOrder []int32
		var cumGain, bestGain int64
		bestPrefix := 0
		for {
			// Surface a live top on each heap, then filter by balance.
			var tops [2]gainEntry
			var movable [2]bool
			for s := 0; s < 2; s++ {
				for len(heaps[s]) > 0 {
					e := heaps[s][0]
					if locked[e.v] || side[e.v] != uint8(s) || gain[e.v] != e.gain {
						heaps[s].pop()
						continue
					}
					tops[s] = e
					movable[s] = weights[1-s]+int64(w.vwgt[e.v]) <= maxW[1-s]
					break
				}
			}
			s := 0
			switch {
			case movable[0] && movable[1]:
				if lazyLess(tops[1], tops[0]) {
					s = 1
				}
			case movable[1]:
				s = 1
			case !movable[0]:
				s = -1
			}
			if s < 0 {
				break
			}
			heaps[s].pop()
			v := tops[s].v
			vw := int64(w.vwgt[v])
			side[v] = uint8(1 - s)
			weights[s] -= vw
			weights[1-s] += vw
			locked[v] = true
			cumGain += gain[v]
			moveOrder = append(moveOrder, v)
			if cumGain > bestGain {
				bestGain = cumGain
				bestPrefix = len(moveOrder)
			}
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
			if len(moveOrder)-bestPrefix > 256 {
				break
			}
		}
		for i := len(moveOrder) - 1; i >= bestPrefix; i-- {
			side[moveOrder[i]] ^= 1
		}
		if bestGain <= 0 {
			break
		}
	}
	return replayed
}

// randomLevel builds a weighted symmetric level: n vertices, a spanning tree
// unless disconnected (then only random arcs, leaving isolated vertices and
// several components), plus extra random edges. Edge weights are drawn per
// undirected edge; vertex weights are 1..maxVW, with a few heavy vertices
// worth about a tenth of the total each when heavy is set.
func randomLevel(r *rng.RNG, n, extra, maxVW int, heavy, disconnected bool) *wgraph {
	b := graph.NewBuilder(n)
	if !disconnected {
		for i := 1; i < n; i++ {
			_ = b.AddEdge(graph.Vertex(i), graph.Vertex(r.Intn(i)))
		}
	}
	for i := 0; i < extra; i++ {
		_ = b.AddEdge(graph.Vertex(r.Intn(n)), graph.Vertex(r.Intn(n)))
	}
	g := b.Build()
	w := fromGraph(g)
	for v := range w.vwgt {
		w.vwgt[v] = int32(1 + r.Intn(maxVW))
	}
	if heavy {
		total := w.totalVertexWeight()
		for i := 0; i < 3; i++ {
			w.vwgt[r.Intn(n)] = int32(total / 10)
		}
	}
	ew := make([]int32, g.NumEdges())
	for i := range ew {
		ew[i] = int32(1 + r.Intn(9))
	}
	for v := 0; v < n; v++ {
		lo := w.offsets[v]
		for i, e := range g.IncidentEdges(graph.Vertex(v)) {
			w.wadj[int(lo)+i] = ew[e]
		}
	}
	return w
}

// TestRefineFMMatchesReference requires the indexed-heap FM to produce the
// lazy-heap reference's bisection byte for byte on random weighted levels:
// loose and tight tolerances (at 1.0 the balance bound blocks heap tops all
// the time), heavy vertices, disconnected graphs, random and structured
// starting sides. One fmScratch is reused across every case. At least 100
// passes must start from replayed gains, so the oracle covers the replay.
func TestRefineFMMatchesReference(t *testing.T) {
	s := &fmScratch{}
	replayed := 0
	for seed := uint64(1); seed <= 120; seed++ {
		r := rng.New(seed)
		n := 2 + r.Intn(600)
		heavy, disconnected := seed%3 == 0, seed%4 == 0
		w := randomLevel(r, n, r.Intn(3*n), 1+r.Intn(6), heavy, disconnected)
		tol := []float64{1.0, 1.001, 1.03, 1.05, 1.3}[seed%5]
		target0 := w.totalVertexWeight() * int64(1+r.Intn(4)) / 5
		init := make([]uint8, n)
		switch seed % 3 {
		case 0:
			for v := range init {
				init[v] = uint8(r.Intn(2))
			}
		case 1:
			copy(init, greedyGrow(w, target0, r, 2))
		default:
			for v := range init {
				init[v] = uint8(v & 1)
			}
		}
		passes := 1 + r.Intn(8)
		want := slices.Clone(init)
		replayed += refineFMReference(w, want, target0, tol, passes)
		got := slices.Clone(init)
		refineFM(w, got, target0, tol, passes, s)
		if !slices.Equal(got, want) {
			t.Fatalf("seed %d (n=%d tol=%v heavy=%v disconnected=%v): indexed FM differs from the reference",
				seed, n, tol, heavy, disconnected)
		}
	}
	if replayed < 100 {
		t.Fatalf("only %d passes started from replayed gains, want at least 100", replayed)
	}
}

// shuffleRows permutes every row of w in place, arcs and weights together.
func shuffleRows(w *wgraph, r *rng.RNG) {
	for v := int32(0); int(v) < w.numVertices(); v++ {
		nbrs, wts := w.neighbors(v)
		for i := len(nbrs) - 1; i > 0; i-- {
			j := r.Intn(i + 1)
			nbrs[i], nbrs[j] = nbrs[j], nbrs[i]
			wts[i], wts[j] = wts[j], wts[i]
		}
	}
}

// TestVertexPartitionRowOrderInvariant is the oracle behind first-touch
// coarse rows: METIS's labels may depend only on the set of (target, weight)
// arcs of each row, never on their order. Shuffling every row of the level-0
// graph must leave the labels byte-identical.
func TestVertexPartitionRowOrderInvariant(t *testing.T) {
	type tc struct {
		name string
		g    *graph.Graph
	}
	var cases []tc
	for seed := uint64(1); seed <= 6; seed++ {
		n := 50 + int(seed)*120
		cases = append(cases, tc{fmt.Sprintf("random%d", seed), randomGraph(seed, n, 3*n)})
	}
	for _, d := range []string{"G1s", "G2s", "G3s", "G4s"} {
		cases = append(cases, tc{d, metisGoldenGraph(t, d)})
	}
	m := New(Config{Seed: 42})
	for _, c := range cases {
		for _, p := range []int{2, 10, 15} {
			want, err := m.VertexPartition(c.g, p)
			if err != nil {
				t.Fatal(err)
			}
			wantHash := labelsHash(want)
			w := fromGraph(c.g)
			shuffleRows(w, rng.New(uint64(p)*7919+uint64(len(c.name))))
			if got := labelsHash(m.partitionWGraph(w, p)); got != wantHash {
				t.Fatalf("%s p=%d: shuffled rows give labels %#016x, want %#016x", c.name, p, got, wantHash)
			}
		}
	}
}
