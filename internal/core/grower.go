package core

import (
	"github.com/graphpart/graphpart/internal/graph"
	"github.com/graphpart/graphpart/internal/obs"
	"github.com/graphpart/graphpart/internal/partition"
)

// Grower runs TLP's growth round on a graph that the caller can swap between
// rounds, so a partition can grow in pieces over a changing view of the
// input; the sliding-window variant (internal/window) drives it over its
// window's resident edges. Stage I runs while the partition's whole load,
// summed over every Grow call for it, is at most its external edges (TLP's
// switch, M <= 1). One call on the whole graph per partition, with room C
// and no starting members, is a TLP run.
type Grower struct {
	st    *runState
	load  []int64 // edges each partition gained through Grow
	stats Stats   // summed over every Grow call
}

// NewGrower returns a grower over g whose assignment a is still empty.
func NewGrower(g *graph.Graph, a *partition.Assignment, opts Options) (*Grower, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	return &Grower{st: newRunState(g, a, opts), load: make([]int64, a.P())}, nil
}

// Grow runs one round of partition k on the bound graph: the round starts
// from the members in start (vertices of the bound graph, absorbed in order)
// or from a random seed, and assigns at most room edges. The round's
// tlp.round span and its stage segments are children of sp. It returns the
// number of edges assigned.
func (gr *Grower) Grow(k, room int, start []graph.Vertex, sp *obs.Span) int {
	st := gr.st
	left, base, evals := st.left, gr.load[k], st.s1Evals
	gr.stats.Rounds++
	st.growRound(k, room, start, func(ein, eout int64) bool { return base+ein <= eout },
		&gr.stats, sp)
	gr.stats.Stage1Kernels.Scan += st.s1Evals - evals
	n := left - st.left
	gr.load[k] += int64(n)
	return n
}

// Stats returns the growth statistics summed over every Grow call: one
// round per call, and selection degrees taken in the graph each round was
// bound to. SweptEdges stays 0; the grower never sweeps.
func (gr *Grower) Stats() Stats { return gr.stats }

// Rebind points the grower at graph g and its still-empty assignment a,
// keeping the seed stream and the partition loads.
func (gr *Grower) Rebind(g *graph.Graph, a *partition.Assignment) {
	st := newRunState(g, a, gr.st.opts)
	st.rand = gr.st.rand
	gr.st = st
}

// Members lists the last round's members in ascending vertex order; none
// before the first Grow on the bound graph.
func (gr *Grower) Members() []graph.Vertex {
	var out []graph.Vertex
	for v, r := range gr.st.memberEpoch {
		if r == gr.st.round && r > 0 {
			out = append(out, graph.Vertex(v))
		}
	}
	return out
}
