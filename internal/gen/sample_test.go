package gen

import (
	"math"
	"testing"

	"github.com/graphpart/graphpart/internal/graph"
	"github.com/graphpart/graphpart/internal/rng"
)

// TestCumIndexMatchesSearchCum checks the guide table against plain binary
// search on every probe that can land on a bucket or element edge.
func TestCumIndexMatchesSearchCum(t *testing.T) {
	r := rng.New(7)
	cumOf := func(w []float64) []float64 {
		cum := make([]float64, len(w))
		total := 0.0
		for i, x := range w {
			total += x
			cum[i] = total
		}
		return cum
	}
	weights := map[string][]float64{
		"single":   {3},
		"uniform":  {1, 1, 1, 1, 1, 1, 1, 1},
		"zeros":    {0, 0, 2, 0, 0, 0, 5, 0, 1, 0, 0},
		"repeated": {4, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 4},
		"all-zero": {0, 0, 0},
	}
	powerLaw := make([]float64, 5000)
	for i := range powerLaw {
		powerLaw[i] = math.Pow(float64(i+1), -0.75)
	}
	weights["power-law"] = powerLaw
	wide := make([]float64, 3000)
	for i := range wide {
		// Weights from 1e-6 to 1e6, with every tenth one zero.
		if i%10 != 0 {
			wide[i] = math.Pow(10, 12*r.Float64()-6)
		}
	}
	weights["1e12-range"] = wide

	for name, w := range weights {
		cum := cumOf(w)
		ix := newCumIndex(cum)
		total := cum[len(cum)-1]
		probes := []float64{0, total, -1, total * 2}
		for _, c := range cum {
			probes = append(probes, c)
		}
		for b := 0; b <= len(cum); b++ {
			probes = append(probes, float64(b)*total/float64(len(cum)))
		}
		for i := 0; i < 20000; i++ {
			probes = append(probes, r.Float64()*total)
		}
		for _, x := range probes {
			for _, y := range []float64{x, math.Nextafter(x, math.Inf(-1)), math.Nextafter(x, math.Inf(1))} {
				if got, want := ix.search(y), searchCum(cum, y); got != want {
					t.Fatalf("%s: search(%v) = %d, searchCum = %d", name, y, got, want)
				}
			}
		}
	}
}

// TestEdgeAccumMatchesMap drives the open-addressing set through several
// resizes and compares every decision and the final graph with a map.
func TestEdgeAccumMatchesMap(t *testing.T) {
	const n = 300
	r := rng.New(3)
	acc := newEdgeAccum(n, 1)
	seen := map[[2]graph.Vertex]bool{}
	for i := 0; i < 20000; i++ {
		u, v := graph.Vertex(r.Intn(n)), graph.Vertex(r.Intn(n))
		if i%97 == 0 {
			v = n // out of range: rejected and not recorded
		}
		key := [2]graph.Vertex{min(u, v), max(u, v)}
		want := u != v && v < n && !seen[key]
		if got := acc.add(u, v); got != want {
			t.Fatalf("add(%d, %d) = %v, want %v", u, v, got, want)
		}
		if want {
			seen[key] = true
		}
	}
	if acc.count() != len(seen) {
		t.Fatalf("count %d, want %d", acc.count(), len(seen))
	}
	g := acc.build()
	if g.NumEdges() != len(seen) {
		t.Fatalf("built %d edges, want %d", g.NumEdges(), len(seen))
	}
	for _, e := range g.Edges() {
		if !seen[[2]graph.Vertex{e.U, e.V}] {
			t.Fatalf("edge %v was never accepted", e)
		}
	}
	if acc.add(0, 0) {
		t.Fatal("self-loop 0-0 accepted")
	}
}

// TestHugeTargetOnTinyGraph checks that the distinct-edge set is sized by
// the possible edges, not the target: a target far beyond n(n-1)/2 must
// neither allocate a table that large nor overflow its size.
func TestHugeTargetOnTinyGraph(t *testing.T) {
	for _, m := range []int{2_000_000_000, 1 << 62, math.MaxInt} {
		for _, n := range []int{0, 1, 2, 5} {
			if got := len(newEdgeAccum(n, m).slots); got > 32 {
				t.Fatalf("newEdgeAccum(%d, %d): %d slots", n, m, got)
			}
		}
		for _, n := range []int{0, 1} {
			r := rng.New(1)
			graphs := map[string]*graph.Graph{
				"community": PlantedCommunities(CommunityConfig{Vertices: n, Communities: 1, TargetEdges: m}, r),
				"plc":       PowerLawCommunities(PowerLawCommunityConfig{Vertices: n, TargetEdges: m, Communities: 1}, r),
				"collab":    Collaboration(CollabConfig{Authors: n, TargetEdges: m}, r),
				"genealogy": Genealogy(GenealogyConfig{People: n, TargetEdges: m, Trees: 1}, r),
				"er":        ErdosRenyi(n, m, r),
			}
			for name, g := range graphs {
				if g.NumEdges() != 0 {
					t.Fatalf("%s n=%d m=%d: %d edges", name, n, m, g.NumEdges())
				}
			}
		}
	}
}
