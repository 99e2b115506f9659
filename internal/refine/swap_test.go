package refine

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"github.com/graphpart/graphpart/internal/graph"
	"github.com/graphpart/graphpart/internal/partition"
	"github.com/graphpart/graphpart/internal/rng"
)

// scoreSideReference is the per-pair scoring the swap sweep replaced: it
// gain-scores side edges for a move into partition `to` with MoveDelta and
// returns at most maxSwapCandidates candidates with non-negative gain,
// ordered (gain desc, edge id asc).
func scoreSideReference(st *partition.State, edges []graph.EdgeID, to int) []swapCand {
	out := make([]swapCand, 0, len(edges))
	for _, e := range edges {
		if g := -st.MoveDelta(e, to); g >= 0 {
			out = append(out, swapCand{e: e, gain: int32(g)})
		}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].gain != out[b].gain {
			return out[a].gain > out[b].gain
		}
		return out[a].e < out[b].e
	})
	if len(out) > maxSwapCandidates {
		out = out[:maxSwapCandidates]
	}
	return out
}

// checkSwapCandidates runs the sweep and compares its list for every ordered
// partition pair with the reference scoring of that side.
func checkSwapCandidates(t *testing.T, r *runner) {
	t.Helper()
	st := r.st
	p := st.P()
	byPart := make([][]graph.EdgeID, p)
	for id := 0; id < st.Assignment().NumEdges(); id++ {
		if e := graph.EdgeID(id); st.IsBoundary(e) {
			k, _ := st.Assignment().PartitionOf(e)
			byPart[k] = append(byPart[k], e)
		}
	}
	r.collectSwapCandidates()
	for i := 0; i < p; i++ {
		for j := 0; j < p; j++ {
			if i == j {
				continue
			}
			want := scoreSideReference(st, byPart[i], j)
			got := r.candidates(nil, i, j)
			if !slices.Equal(got, want) {
				t.Fatalf("p=%d side %d -> %d: sweep %v, reference %v", p, i, j, got, want)
			}
		}
	}
}

func TestSwapCandidatesMatchReference(t *testing.T) {
	for _, p := range []int{2, 8, 64, 65, 80} {
		t.Run(fmt.Sprintf("p%d", p), func(t *testing.T) {
			g := randomGraph(uint64(p), 1500, 6000)
			a := partition.MustNew(g.NumEdges(), p)
			r := rng.New(uint64(100 + p))
			for id := 0; id < g.NumEdges(); id++ {
				a.Assign(graph.EdgeID(id), r.Intn(p))
			}
			st, err := partition.NewState(g, a)
			if err != nil {
				t.Fatal(err)
			}
			run := newRunner(g, st, g.NumEdges(), 1)
			checkSwapCandidates(t, run)
			// The scratch is reused: a second sweep after a swap phase has
			// changed the state must match the reference again.
			if swaps, _ := run.swapPhase(); swaps == 0 {
				t.Fatal("swap phase applied nothing; the second sweep would not test reuse")
			}
			checkSwapCandidates(t, run)
		})
	}

	// 100 disjoint edges (a_t, b_t) in partition 0, each endpoint also
	// joined to c_t in partition 1: every edge of partition 0 leaves with
	// gain 2 into partition 1, so the cut falls inside the top bucket, and
	// with gain 0 into partition 2; every edge of partition 1 has gain 0
	// into partition 0 and no candidate gain into partition 2.
	t.Run("ties", func(t *testing.T) {
		const n = 100
		var edges []graph.Edge
		for x := 0; x < n; x++ {
			a, b, c := graph.Vertex(3*x), graph.Vertex(3*x+1), graph.Vertex(3*x+2)
			edges = append(edges, graph.Edge{U: a, V: b}, graph.Edge{U: a, V: c}, graph.Edge{U: b, V: c})
		}
		g := graph.MustFromEdges(3*n, edges)
		a := partition.MustNew(g.NumEdges(), 3)
		for id, ed := range g.Edges() {
			if ed.U%3 == 0 && ed.V%3 == 1 || ed.U%3 == 1 && ed.V%3 == 0 {
				a.Assign(graph.EdgeID(id), 0)
			} else {
				a.Assign(graph.EdgeID(id), 1)
			}
		}
		st, err := partition.NewState(g, a)
		if err != nil {
			t.Fatal(err)
		}
		run := newRunner(g, st, g.NumEdges(), 1)
		checkSwapCandidates(t, run)
		for _, c := range []struct{ i, j, gain, n int }{{0, 1, 2, 64}, {0, 2, 0, 64}, {1, 0, 0, 64}, {1, 2, 0, 0}} {
			got := run.candidates(nil, c.i, c.j)
			if len(got) != c.n {
				t.Fatalf("side %d -> %d: %d candidates, want %d", c.i, c.j, len(got), c.n)
			}
			for _, sc := range got {
				if int(sc.gain) != c.gain {
					t.Fatalf("side %d -> %d: candidate %v, want gain %d", c.i, c.j, sc, c.gain)
				}
			}
		}
	})
}
