package partition

import (
	"math"
	"strings"
	"testing"

	"github.com/graphpart/graphpart/internal/graph"
	"github.com/graphpart/graphpart/internal/parallel"
	"github.com/graphpart/graphpart/internal/rng"
	"github.com/graphpart/graphpart/internal/source"
)

// randomAssigned builds a random graph of more than 20000 edges with every
// edge assigned pseudo-randomly across p partitions.
func randomAssigned(t *testing.T, p int) (*graph.Graph, *Assignment) {
	t.Helper()
	const n = 5000
	r := rng.New(11)
	b := graph.NewBuilder(n)
	for added := 0; added < 24000; added++ {
		u, v := graph.Vertex(r.Intn(n)), graph.Vertex(r.Intn(n))
		if u == v {
			continue
		}
		if err := b.AddEdge(u, v); err != nil {
			t.Fatal(err)
		}
	}
	g := b.Build()
	if g.NumEdges() <= 20000 {
		t.Fatalf("only %d edges; the unassigned-edge check needs edge 20000", g.NumEdges())
	}
	a := MustNew(g.NumEdges(), p)
	for id := 0; id < g.NumEdges(); id++ {
		a.Assign(graph.EdgeID(id), int(rng.Hash64(uint64(id))%uint64(p)))
	}
	return g, a
}

// referenceMetrics recomputes Metrics from VertexSets alone.
func referenceMetrics(g *graph.Graph, a *Assignment) (Metrics, []int) {
	p := a.P()
	want := Metrics{P: p, MinLoad: a.MinLoad(), MaxLoad: a.MaxLoad(), Modularity: make([]float64, p)}
	counts := make([]int, g.NumVertices())
	for k, set := range VertexSets(g, a) {
		var degSum int64
		for _, v := range set {
			counts[v]++
			degSum += int64(g.Degree(v))
		}
		want.TotalReplicas += len(set)
		internal := int64(a.Load(k))
		switch ext := degSum - 2*internal; {
		case internal == 0:
		case ext == 0:
			want.Modularity[k] = math.Inf(1)
		default:
			want.Modularity[k] = float64(internal) / float64(ext)
		}
	}
	for _, c := range counts {
		if c >= 2 {
			want.SpannedVertices++
		}
	}
	want.ReplicationFactor = float64(want.TotalReplicas) / float64(g.NumVertices())
	want.Balance = float64(want.MaxLoad) / (float64(g.NumEdges()) / float64(p))
	return want, counts
}

func metricsEqual(t *testing.T, what string, want, got Metrics) {
	t.Helper()
	if want.P != got.P || want.TotalReplicas != got.TotalReplicas ||
		want.SpannedVertices != got.SpannedVertices ||
		want.MaxLoad != got.MaxLoad || want.MinLoad != got.MinLoad ||
		want.ReplicationFactor != got.ReplicationFactor ||
		want.Balance != got.Balance {
		t.Fatalf("%s: metrics differ:\nwant %+v\ngot  %+v", what, want, got)
	}
	modularityEqual(t, what, want.Modularity, got.Modularity)
}

func modularityEqual(t *testing.T, what string, want, got []float64) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: modularity lengths differ: %d vs %d", what, len(want), len(got))
	}
	for k := range want {
		if want[k] != got[k] && !(math.IsInf(want[k], 1) && math.IsInf(got[k], 1)) {
			t.Fatalf("%s: modularity[%d] = %v, want %v", what, k, got[k], want[k])
		}
	}
}

// TestPresenceKernelMatchesVertexSets checks every replica-derived metric
// against a VertexSets recomputation on both sides of each presence word
// boundary.
func TestPresenceKernelMatchesVertexSets(t *testing.T) {
	for _, p := range []int{1, 13, 64, 65, 130} {
		g, a := randomAssigned(t, p)
		want, wantCounts := referenceMetrics(g, a)
		got, err := Compute(g, a)
		if err != nil {
			t.Fatal(err)
		}
		metricsEqual(t, "Compute", want, got)
		rf, err := ReplicationFactor(g, a)
		if err != nil {
			t.Fatal(err)
		}
		if rf != want.ReplicationFactor {
			t.Fatalf("p=%d: ReplicationFactor %v, want %v", p, rf, want.ReplicationFactor)
		}
		for v, c := range ReplicaCount(g, a) {
			if c != wantCounts[v] {
				t.Fatalf("p=%d: ReplicaCount[%d] = %d, want %d", p, v, c, wantCounts[v])
			}
		}
		shuffled := source.FromGraph(g, source.OrderShuffled, 9)
		sm, err := StreamMetrics(shuffled, a)
		if err != nil {
			t.Fatal(err)
		}
		metricsEqual(t, "StreamMetrics", want, sm)
	}
}

// TestPresenceScanUnassignedError checks that an incomplete assignment is
// reported by its lowest-numbered unassigned edge by every metric entry point,
// at every p and whatever order the edges are scanned in.
func TestPresenceScanUnassignedError(t *testing.T) {
	for _, p := range []int{1, 13, 64, 65, 130} {
		g, a := randomAssigned(t, p)
		// Unassign two edges; the error must always name the lower id.
		partial := MustNew(g.NumEdges(), p)
		for id := 0; id < g.NumEdges(); id++ {
			if id != 1234 && id != 20000 {
				k, _ := a.PartitionOf(graph.EdgeID(id))
				partial.Assign(graph.EdgeID(id), k)
			}
		}
		shuffled := source.FromGraph(g, source.OrderShuffled, 9)
		_, errCompute := Compute(g, partial)
		_, errRF := ReplicationFactor(g, partial)
		_, errStream := StreamMetrics(shuffled, partial)
		for name, err := range map[string]error{
			"Compute": errCompute, "ReplicationFactor": errRF,
			"StreamMetrics": errStream,
		} {
			if err == nil || !strings.Contains(err.Error(), "edge 1234 unassigned") {
				t.Fatalf("p=%d: %s returned %v, want edge 1234 unassigned", p, name, err)
			}
		}
	}
}

// TestComputeParallelMatchesSequential checks Compute (modularity included)
// and ReplicationFactor give the same result bit for bit whatever
// GRAPHPART_WORKERS says: the metrics are computed by one sequential kernel,
// and the worker setting that sizes the partitioners' pools must never leak
// into them.
func TestComputeParallelMatchesSequential(t *testing.T) {
	g, a := randomAssigned(t, 13)

	t.Setenv(parallel.EnvWorkers, "1")
	seqM, err := Compute(g, a)
	if err != nil {
		t.Fatal(err)
	}
	seqRF, err := ReplicationFactor(g, a)
	if err != nil {
		t.Fatal(err)
	}

	for _, workers := range []string{"2", "5", "16"} {
		t.Setenv(parallel.EnvWorkers, workers)
		parM, err := Compute(g, a)
		if err != nil {
			t.Fatal(err)
		}
		metricsEqual(t, "Compute workers="+workers, seqM, parM)
		parRF, err := ReplicationFactor(g, a)
		if err != nil {
			t.Fatal(err)
		}
		if parRF != seqRF {
			t.Fatalf("workers=%s: RF %v vs %v", workers, parRF, seqRF)
		}
	}
}
