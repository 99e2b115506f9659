package partition

import (
	"github.com/graphpart/graphpart/internal/graph"
	"github.com/graphpart/graphpart/internal/invariants"
)

// assertLoadsConsistent recomputes the per-partition load histogram from the
// parts array and compares it to the incrementally tracked loads. The parts
// array gives every edge at most one partition by construction, so the
// footprint of an "edge assigned twice" bug is exactly this disagreement:
// the tracked loads sum to more edges than the parts array accounts for.
// No-op unless built with -tags graphpart_invariants.
func assertLoadsConsistent(a *Assignment) {
	if !invariants.Enabled {
		return
	}
	loads := make([]int, a.p)
	for e, k := range a.parts {
		if k == Unassigned {
			continue
		}
		invariants.Assertf(0 <= k && int(k) < a.p,
			"edge %d assigned to partition %d outside [0,%d)", e, k, a.p)
		loads[k]++
	}
	for k := range loads {
		invariants.Assertf(loads[k] == a.loads[k],
			"partition %d: %d edges in parts array but tracked load is %d (an edge was double-counted or lost)",
			k, loads[k], a.loads[k])
	}
}

// assertReplicaConsistent recomputes every vertex's replica count the slow
// way — materialising V(P_k) per partition — and compares it to the
// presence kernel's, so the two replica implementations police each other.
// No-op unless built with -tags graphpart_invariants.
func assertReplicaConsistent(g *graph.Graph, a *Assignment, pr *presence) {
	if !invariants.Enabled {
		return
	}
	counts := make([]int, g.NumVertices())
	for _, set := range VertexSets(g, a) {
		for _, v := range set {
			counts[v]++
		}
	}
	for v, want := range counts {
		invariants.Assertf(pr.replicas(v) == want,
			"replication disagreement at vertex %d: presence kernel found %d partitions, vertex-set scan found %d",
			v, pr.replicas(v), want)
	}
}
