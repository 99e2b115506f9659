package core

import (
	"testing"

	"github.com/graphpart/graphpart/internal/gen"
	"github.com/graphpart/graphpart/internal/graph"
	"github.com/graphpart/graphpart/internal/partition"
	"github.com/graphpart/graphpart/internal/rng"
)

// referenceSweep is the O(m·p) argmin scan that TLP's heap sweep
// (partition.AssignLeftovers) replaced; kept
// here as the behavioural oracle for the heap version.
func referenceSweep(g *graph.Graph, a *partition.Assignment, stats *Stats) {
	for id := 0; id < g.NumEdges(); id++ {
		eid := graph.EdgeID(id)
		if a.IsAssigned(eid) {
			continue
		}
		best := 0
		for k := 1; k < a.P(); k++ {
			if a.Load(k) < a.Load(best) {
				best = k
			}
		}
		a.Assign(eid, best)
		stats.SweptEdges++
	}
}

// TestSweepLeftoversMatchesReferenceScan seeds partial assignments of
// varying density and checks the heap sweep places every leftover edge in
// exactly the partition the argmin scan would have chosen.
func TestSweepLeftoversMatchesReferenceScan(t *testing.T) {
	g := gen.ChungLu(gen.ChungLuConfig{Vertices: 1500, TargetEdges: 8000, Exponent: 2.1}, rng.New(31))
	for _, p := range []int{1, 2, 7, 16, 33} {
		for _, density := range []uint64{0, 3, 6, 9} {
			aHeap := partition.MustNew(g.NumEdges(), p)
			aRef := partition.MustNew(g.NumEdges(), p)
			for id := 0; id < g.NumEdges(); id++ {
				if rng.Hash64(uint64(id))%10 < density {
					k := int(rng.Hash2(uint64(id), uint64(p)) % uint64(p))
					aHeap.Assign(graph.EdgeID(id), k)
					aRef.Assign(graph.EdgeID(id), k)
				}
			}
			var sHeap, sRef Stats
			sHeap.SweptEdges += partition.AssignLeftovers(aHeap)
			referenceSweep(g, aRef, &sRef)
			if sHeap.SweptEdges != sRef.SweptEdges {
				t.Fatalf("p=%d density=%d: swept %d vs %d edges",
					p, density, sHeap.SweptEdges, sRef.SweptEdges)
			}
			for id := 0; id < g.NumEdges(); id++ {
				kh, _ := aHeap.PartitionOf(graph.EdgeID(id))
				kr, _ := aRef.PartitionOf(graph.EdgeID(id))
				if kh != kr {
					t.Fatalf("p=%d density=%d: edge %d swept to %d, reference says %d",
						p, density, id, kh, kr)
				}
			}
		}
	}
}

// TestSweepLiteralBreakEndToEnd runs TLP in LiteralBreak mode — the mode
// that routes a large edge fraction through the sweep — and validates the
// result is a complete, capacity-respecting assignment.
func TestSweepLiteralBreakEndToEnd(t *testing.T) {
	g := gen.ChungLu(gen.ChungLuConfig{Vertices: 2000, TargetEdges: 10000, Exponent: 2.1}, rng.New(37))
	const p = 8
	tlp := MustNew(Options{Seed: 5, LiteralBreak: true})
	a, stats, err := tlp.PartitionStats(g, p)
	if err != nil {
		t.Fatal(err)
	}
	if got := a.AssignedCount(); got != g.NumEdges() {
		t.Fatalf("assigned %d of %d edges", got, g.NumEdges())
	}
	if stats.SweptEdges == 0 {
		t.Fatal("LiteralBreak run swept no edges; test exercises nothing")
	}
	if err := partition.Validate(g, a, partition.ValidateOptions{}); err != nil {
		t.Fatalf("validation failed: %v", err)
	}
}
