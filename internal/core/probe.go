package core

import (
	"fmt"

	"github.com/graphpart/graphpart/internal/graph"
	"github.com/graphpart/graphpart/internal/partition"
	"github.com/graphpart/graphpart/internal/rng"
)

// OverlapProbe drives the stage-I intersection kernels directly against a
// frozen mid-run state, so benchmarks (bench_test.go's
// BenchmarkStage1Overlap*) and diagnostics can measure one kernel at a time
// without running a whole partitioning. It builds the same structures a run
// uses — alive rows, hub bitsets — and optionally retires a random
// fraction of edges so the rows resemble mid-round state.
type OverlapProbe struct {
	st *runState
}

// NewOverlapProbe builds probe state over g with deadFraction of the edges
// retired (assigned) deterministically from seed.
func NewOverlapProbe(g *graph.Graph, deadFraction float64, seed uint64) (*OverlapProbe, error) {
	if g == nil {
		return nil, fmt.Errorf("core: nil graph")
	}
	if !(deadFraction >= 0 && deadFraction < 1) {
		return nil, fmt.Errorf("core: dead fraction %v outside [0,1)", deadFraction)
	}
	a, err := partition.New(g.NumEdges(), 2)
	if err != nil {
		return nil, err
	}
	st := newRunState(g, a, Options{Seed: seed})
	st.initPairKernels()
	r := rng.New(seed)
	for e := 0; e < g.NumEdges(); e++ {
		if r.Float64() >= deadFraction {
			continue
		}
		eid := graph.EdgeID(e)
		ed := g.Edges()[eid]
		st.a.Assign(eid, 0)
		st.aliveDeg[ed.U]--
		st.aliveDeg[ed.V]--
		st.killEdge(eid)
	}
	return &OverlapProbe{st: st}, nil
}

// IsHub reports whether v carries a persistent alive-neighbourhood bitset.
func (p *OverlapProbe) IsHub(v graph.Vertex) bool { return p.st.hubBits[v] != nil }

// AliveDegree returns v's current alive (unassigned) degree.
func (p *OverlapProbe) AliveDegree(v graph.Vertex) int { return int(p.st.alive.n[v]) }

// Overlap runs the dispatching kernel exactly as a partitioning would,
// returning the overlap count and the name of the kernel selected.
func (p *OverlapProbe) Overlap(a, b graph.Vertex) (int, string) {
	mark := p.st.markAlive(a)
	cnt, kind := p.st.overlapAlive(a, b, mark)
	return cnt, kernelName(kind)
}

// Scan forces the epoch-stamp scan kernel: stamp a's alive row, scan b's.
func (p *OverlapProbe) Scan(a, b graph.Vertex) int {
	mark := p.st.nextMark()
	an, _ := p.st.alive.row(a)
	for _, u := range an {
		p.st.markStamp[u] = mark
	}
	return p.st.scanRowStamp(b, mark)
}

// Bitset forces the hub-bitset kernel, scanning a's alive row against b's
// persistent bitset. b must be a hub (IsHub).
func (p *OverlapProbe) Bitset(a, b graph.Vertex) int {
	w := p.st.hubBits[b]
	if w == nil {
		panic(fmt.Sprintf("core: probe Bitset target %d is not a hub", b))
	}
	return p.st.scanRowBits(a, w)
}

// Word forces the word-at-a-time AND+popcount kernel. Both vertices must be
// hubs.
func (p *OverlapProbe) Word(a, b graph.Vertex) int {
	wa, wb := p.st.hubBits[a], p.st.hubBits[b]
	if wa == nil || wb == nil {
		panic(fmt.Sprintf("core: probe Word needs two hubs, got %d,%d", a, b))
	}
	return overlapWords(wa, wb)
}

// Gallop forces the binary-search kernel: iterate a's alive row, search b's
// sorted CSR row.
func (p *OverlapProbe) Gallop(a, b graph.Vertex) int { return p.st.gallopRows(a, b) }

// kernelName renders a kernelKind for exported surfaces.
func kernelName(k kernelKind) string {
	switch k {
	case kernelScan:
		return "scan"
	case kernelBitset:
		return "bitset"
	case kernelWord:
		return "word"
	case kernelGallop:
		return "gallop"
	}
	return "unknown"
}
