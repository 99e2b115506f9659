package engine

import (
	"testing"

	"github.com/graphpart/graphpart/internal/graph"
	"github.com/graphpart/graphpart/internal/partition"
)

// churn is a vertex program that never converges: every vertex stays active
// every superstep, the worst case the replication-factor traffic bound
// describes.
type churn struct{}

func (churn) Name() string                                        { return "churn" }
func (churn) Init(v graph.Vertex, degree int) float64             { return float64(v) }
func (churn) Gather(value float64, degree int) float64            { return value }
func (churn) Sum(a, b float64) float64                            { return a + b }
func (churn) Apply(v graph.Vertex, old, g float64, d int) float64 { return g + 1 }
func (churn) Converged(old, new float64) bool                     { return false }

func roundRobin(g *graph.Graph, p int) *partition.Assignment {
	a := partition.MustNew(g.NumEdges(), p)
	for id := 0; id < g.NumEdges(); id++ {
		a.Assign(graph.EdgeID(id), id%p)
	}
	return a
}

// TestTrafficBound is the satellite property test: with every vertex active
// in every superstep, synchronisation traffic is exactly
// 2 * (TotalReplicas - Masters) messages per superstep — one gather flush up
// and one apply broadcast down per mirror — and no activation traffic at
// all, since no replica's activation ever deviates from its broadcast.
func TestTrafficBound(t *testing.T) {
	g := testGraph(3, 400, 1600)
	for _, p := range []int{2, 5, 8} {
		e, err := New(g, roundRobin(g, p))
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		const steps = 6
		_, stats, err := e.Run(churn{}, steps)
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		if stats.Supersteps != steps {
			t.Fatalf("p=%d: ran %d supersteps, want %d", p, stats.Supersteps, steps)
		}
		mirrors := int64(stats.TotalReplicas - stats.Masters)
		for s, tot := range stats.PerStep {
			if tot.GatherMessages != mirrors {
				t.Errorf("p=%d step %d: gather messages = %d, want %d", p, s, tot.GatherMessages, mirrors)
			}
			if tot.ApplyMessages != mirrors {
				t.Errorf("p=%d step %d: apply messages = %d, want %d", p, s, tot.ApplyMessages, mirrors)
			}
			if tot.ActivateMessages != 0 {
				t.Errorf("p=%d step %d: activate messages = %d, want 0", p, s, tot.ActivateMessages)
			}
			if tot.Messages() != 2*mirrors {
				t.Errorf("p=%d step %d: total messages = %d, want %d", p, s, tot.Messages(), 2*mirrors)
			}
			if mirrors > 0 && tot.Bytes() <= 0 {
				t.Errorf("p=%d step %d: zero wire bytes with %d mirrors", p, s, mirrors)
			}
		}
		if got := stats.Messages(); got != 2*mirrors*steps {
			t.Errorf("p=%d: run total = %d messages, want %d", p, got, 2*mirrors*steps)
		}
	}
}

// TestPerStepSumsMatchTotals checks the per-superstep attribution and the
// per-link matrix agree with the cumulative counters, and that the matrix
// diagonal stays zero (machine-local state never touches the transport).
func TestPerStepSumsMatchTotals(t *testing.T) {
	g := testGraph(5, 300, 900)
	e, err := New(g, roundRobin(g, 6))
	if err != nil {
		t.Fatal(err)
	}
	_, stats, err := e.Run(NewPageRank(g.NumVertices(), 0.85, 1e-6), 20)
	if err != nil {
		t.Fatal(err)
	}
	var sum Totals
	for _, tot := range stats.PerStep {
		sum.GatherMessages += tot.GatherMessages
		sum.ApplyMessages += tot.ApplyMessages
		sum.ActivateMessages += tot.ActivateMessages
		sum.GatherBytes += tot.GatherBytes
		sum.ApplyBytes += tot.ApplyBytes
		sum.ActivateBytes += tot.ActivateBytes
	}
	if sum != (Totals{stats.GatherMessages, stats.ApplyMessages, stats.ActivateMessages,
		stats.GatherBytes, stats.ApplyBytes, stats.ActivateBytes}) {
		t.Errorf("per-step sums %+v do not match run totals", sum)
	}
	if stats.Links == nil || stats.Links.P() != 6 {
		t.Fatalf("traffic matrix missing or wrong size: %+v", stats.Links)
	}
	if got := stats.Links.TotalMessages(); got != stats.Messages() {
		t.Errorf("matrix total %d != stats total %d", got, stats.Messages())
	}
	if got := stats.Links.TotalBytes(); got != stats.Bytes() {
		t.Errorf("matrix bytes %d != stats bytes %d", got, stats.Bytes())
	}
	for i := 0; i < 6; i++ {
		if stats.Links.Messages[i][i] != 0 || stats.Links.Bytes[i][i] != 0 {
			t.Errorf("machine %d has diagonal traffic", i)
		}
	}
}

// TestSkipCapacity covers the new ValidateOptions.SkipCapacity field the
// engine relies on: a wildly unbalanced but complete assignment validates
// with it and fails without it.
func TestSkipCapacity(t *testing.T) {
	g := testGraph(9, 50, 150)
	a := partition.MustNew(g.NumEdges(), 4)
	for id := 0; id < g.NumEdges(); id++ {
		a.Assign(graph.EdgeID(id), 0) // everything on machine 0
	}
	if err := partition.Validate(g, a, partition.ValidateOptions{}); err == nil {
		t.Fatal("unbalanced assignment validated without SkipCapacity")
	}
	if err := partition.Validate(g, a, partition.ValidateOptions{SkipCapacity: true}); err != nil {
		t.Fatalf("SkipCapacity validation failed: %v", err)
	}
	if _, err := New(g, a); err != nil {
		t.Fatalf("engine rejected unbalanced assignment: %v", err)
	}
}

// TestCustomTransport checks RunWith drives a caller-supplied transport and
// lands its traffic in Stats.
func TestCustomTransport(t *testing.T) {
	g := testGraph(13, 100, 300)
	e, err := New(g, roundRobin(g, 3))
	if err != nil {
		t.Fatal(err)
	}
	tr := NewMemTransport(3)
	_, stats, err := e.RunWith(churn{}, 4, tr)
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.Totals(); got.Messages() != stats.Messages() {
		t.Errorf("transport totals %d != stats %d", got.Messages(), stats.Messages())
	}
}
