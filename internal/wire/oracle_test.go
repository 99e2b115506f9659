package wire_test

import (
	"fmt"
	"sort"
	"testing"

	graphpart "github.com/graphpart/graphpart"
	"github.com/graphpart/graphpart/internal/engine"
	"github.com/graphpart/graphpart/internal/graph"
	"github.com/graphpart/graphpart/internal/rng"
	"github.com/graphpart/graphpart/internal/wire"
)

// oracleGraph builds a connected random graph (random tree plus extra
// edges), the same shape the engine's own oracle tests use.
func oracleGraph(seed uint64, n, extra int) *graph.Graph {
	r := rng.New(seed)
	b := graph.NewBuilder(n)
	for i := 1; i < n; i++ {
		_ = b.AddEdge(graph.Vertex(i), graph.Vertex(r.Intn(i)))
	}
	for b.NumEdgesAdded() < n-1+extra {
		u := graph.Vertex(r.Intn(n))
		v := graph.Vertex(r.Intn(n))
		if u != v {
			_ = b.AddEdge(u, v)
		}
	}
	return b.Build()
}

// oraclePartitioners is every registered partitioner (seed 42) plus
// "flatkl": FlatKL from its public constructor with one FM pass and one
// initial trial. The registry holds FlatKL once, under "kl", at its
// defaults; the lightly refined variant gives the runtime a second,
// different Kernighan-Lin layout to reproduce.
func oraclePartitioners() map[string]graphpart.Partitioner {
	parts := graphpart.AllPartitioners(42)
	parts["flatkl"] = graphpart.NewFlatKL(graphpart.METISConfig{Seed: 42, FMPasses: 1, InitialTrials: 1})
	return parts
}

// TestTCPOracleBitIdentical is the acceptance oracle of the wire layer: for
// every partitioner in oraclePartitioners, at p in {2, 8}, PageRank,
// connected components and SSSP executed over real TCP sockets must return values
// bit-for-bit equal to the plain sequential loop, with the same superstep
// count — the network changes how bytes move, not what gets computed.
func TestTCPOracleBitIdentical(t *testing.T) {
	g := oracleGraph(7, 500, 2000)
	n := g.NumVertices()
	programs := []struct {
		name string
		make func() engine.Program
		max  int
	}{
		{"pagerank", func() engine.Program { return engine.NewPageRank(n, 0.85, 1e-8) }, 30},
		{"components", func() engine.Program { return &engine.Components{} }, 50},
		{"sssp", func() engine.Program { return &engine.SSSP{Source: 0} }, 50},
	}
	parts := oraclePartitioners()
	names := make([]string, 0, len(parts))
	for name := range parts {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, pr := range programs {
		want, wantSteps, err := engine.RunSequential(g, pr.make(), pr.max)
		if err != nil {
			t.Fatalf("sequential %s: %v", pr.name, err)
		}
		for _, name := range names {
			for _, p := range []int{2, 8} {
				t.Run(fmt.Sprintf("%s/%s/p%d", pr.name, name, p), func(t *testing.T) {
					a, err := parts[name].Partition(g, p)
					if err != nil {
						t.Fatalf("partition: %v", err)
					}
					e, err := engine.New(g, a)
					if err != nil {
						t.Fatalf("engine.New: %v", err)
					}
					tr := newTCP(t, p)
					got, stats, err := e.RunWith(pr.make(), pr.max, tr)
					if err != nil {
						t.Fatalf("RunWith over TCP: %v", err)
					}
					if stats.Supersteps != wantSteps {
						t.Fatalf("supersteps = %d, sequential ran %d", stats.Supersteps, wantSteps)
					}
					for v := range want {
						if got[v] != want[v] {
							t.Fatalf("vertex %d: TCP runtime %v != sequential %v (not bit-identical)",
								v, got[v], want[v])
						}
					}
				})
			}
		}
	}
}

// TestTCPTrafficMatchesMem runs the same partitioned job over MemTransport
// and TCPTransport and checks the traffic reports line up: identical message
// counts and superstep schedule, per-link and per-step, with TCP bytes equal
// to payload bytes plus the frame header per message everywhere.
func TestTCPTrafficMatchesMem(t *testing.T) {
	g := oracleGraph(13, 400, 1200)
	const p = 4
	a, err := graphpart.AllPartitioners(42)["tlp"].Partition(g, p)
	if err != nil {
		t.Fatalf("partition: %v", err)
	}
	run := func(tr engine.Transport) ([]float64, engine.Stats) {
		e, err := engine.New(g, a)
		if err != nil {
			t.Fatalf("engine.New: %v", err)
		}
		prog := engine.NewPageRank(g.NumVertices(), 0.85, 1e-8)
		vals, stats, err := e.RunWith(prog, 25, tr)
		if err != nil {
			t.Fatalf("RunWith: %v", err)
		}
		return vals, stats
	}
	memVals, memStats := run(engine.NewMemTransport(p))
	tcpVals, tcpStats := run(newTCP(t, p))
	for v := range memVals {
		if memVals[v] != tcpVals[v] {
			t.Fatalf("vertex %d: mem %v != tcp %v", v, memVals[v], tcpVals[v])
		}
	}
	if memStats.Supersteps != tcpStats.Supersteps {
		t.Fatalf("supersteps: mem %d, tcp %d", memStats.Supersteps, tcpStats.Supersteps)
	}
	if memStats.Messages() != tcpStats.Messages() {
		t.Fatalf("messages: mem %d, tcp %d", memStats.Messages(), tcpStats.Messages())
	}
	wantBytes := memStats.Bytes() + wire.FrameHeaderSize*memStats.Messages()
	if tcpStats.Bytes() != wantBytes {
		t.Fatalf("tcp bytes = %d, want %d (mem payload + header per message)", tcpStats.Bytes(), wantBytes)
	}
	if len(memStats.PerStep) != len(tcpStats.PerStep) {
		t.Fatalf("per-step lengths differ: mem %d, tcp %d", len(memStats.PerStep), len(tcpStats.PerStep))
	}
	for i := range memStats.PerStep {
		ms, ts := memStats.PerStep[i], tcpStats.PerStep[i]
		if ms.Messages() != ts.Messages() {
			t.Fatalf("step %d messages: mem %d, tcp %d", i, ms.Messages(), ts.Messages())
		}
		if ts.Bytes() != ms.Bytes()+wire.FrameHeaderSize*ms.Messages() {
			t.Fatalf("step %d bytes: tcp %d, mem %d + headers", i, ts.Bytes(), ms.Bytes())
		}
	}
	for i := 0; i < p; i++ {
		for j := 0; j < p; j++ {
			if memStats.Links.Messages[i][j] != tcpStats.Links.Messages[i][j] {
				t.Fatalf("link %d->%d messages: mem %d, tcp %d", i, j,
					memStats.Links.Messages[i][j], tcpStats.Links.Messages[i][j])
			}
			wantLink := memStats.Links.Bytes[i][j] + wire.FrameHeaderSize*memStats.Links.Messages[i][j]
			if tcpStats.Links.Bytes[i][j] != wantLink {
				t.Fatalf("link %d->%d bytes: tcp %d, want %d", i, j, tcpStats.Links.Bytes[i][j], wantLink)
			}
		}
	}
}
