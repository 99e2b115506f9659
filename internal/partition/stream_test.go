package partition

import (
	"math"
	"testing"

	"github.com/graphpart/graphpart/internal/graph"
	"github.com/graphpart/graphpart/internal/rng"
	"github.com/graphpart/graphpart/internal/source"
)

// TestStreamMetricsMatchesCompute checks the CSR-free metrics pass agrees
// with Compute on every field, for streams in any order.
func TestStreamMetricsMatchesCompute(t *testing.T) {
	r := rng.New(41)
	b := graph.NewBuilder(120)
	for i := 0; i < 500; i++ {
		if err := b.AddEdge(graph.Vertex(r.Intn(120)), graph.Vertex(r.Intn(120))); err != nil {
			t.Fatal(err)
		}
	}
	g := b.Build()
	for _, p := range []int{1, 4, 7, 64} {
		a := MustNew(g.NumEdges(), p)
		for id := 0; id < g.NumEdges(); id++ {
			a.Assign(graph.EdgeID(id), int(rng.Hash2(5, uint64(id))%uint64(p)))
		}
		want, err := Compute(g, a)
		if err != nil {
			t.Fatal(err)
		}
		for _, ord := range []source.Order{source.OrderNatural, source.OrderShuffled, source.OrderBFS} {
			got, err := StreamMetrics(source.FromGraph(g, ord, 9), a)
			if err != nil {
				t.Fatal(err)
			}
			if got.P != want.P || got.ReplicationFactor != want.ReplicationFactor ||
				got.Balance != want.Balance || got.MaxLoad != want.MaxLoad ||
				got.MinLoad != want.MinLoad || got.SpannedVertices != want.SpannedVertices ||
				got.TotalReplicas != want.TotalReplicas {
				t.Fatalf("p=%d order %d: stream metrics %+v, want %+v", p, ord, got, want)
			}
			for k := range want.Modularity {
				gm, wm := got.Modularity[k], want.Modularity[k]
				if gm != wm && !(math.IsInf(gm, 1) && math.IsInf(wm, 1)) {
					t.Fatalf("p=%d order %d: modularity[%d] = %v, want %v", p, ord, k, gm, wm)
				}
			}
		}
	}
}

func TestStreamMetricsErrors(t *testing.T) {
	g := graph.MustFromEdges(3, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}})
	src := source.FromGraph(g, source.OrderNatural, 0)
	a := MustNew(g.NumEdges(), 65)
	a.Assign(0, 3)
	a.Assign(1, 64)
	want, err := Compute(g, a)
	if err != nil {
		t.Fatal(err)
	}
	got, err := StreamMetrics(src, a)
	if err != nil {
		t.Fatalf("p=65: %v", err)
	}
	metricsEqual(t, "StreamMetrics at p=65", want, got)
	a2 := MustNew(g.NumEdges(), 2)
	if _, err := StreamMetrics(src, a2); err == nil {
		t.Fatal("unassigned edges accepted")
	}
	a3 := MustNew(g.NumEdges()+1, 2)
	if _, err := StreamMetrics(src, a3); err == nil {
		t.Fatal("size mismatch accepted")
	}
}
