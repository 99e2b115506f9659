// Package refine improves a finished edge partitioning in place with the
// move/swap local search of ROADMAP item 4 ("Enhancing Balanced Graph Edge
// Partition with Effective Local Search", Guo et al.): per-vertex
// replica-reduction moves vacate one of a spanned vertex's partition slices
// into another partition the vertex already occupies, and boundary-edge
// swaps exchange edges between partition pairs when the combined replica
// reduction is positive, which improves RF without touching any load. Both
// neighbourhoods run on the incremental partition.State, so every gain is an
// O(1) count lookup and applying a move is O(1) amortized.
//
// The search is sequential, like the method it follows. Each pass scores
// candidates against the phase-start state — moves per spanned vertex, swaps
// in one ascending sweep over the boundary edges — then applies them in one
// fold (moves by ascending vertex, swaps by ascending (i, j) partition
// pair), re-evaluating every exact gain against the live state. Stale
// candidates are skipped, never mis-applied.
package refine

import (
	"cmp"
	"fmt"
	"math"
	mathbits "math/bits"
	"slices"

	"github.com/graphpart/graphpart/internal/graph"
	"github.com/graphpart/graphpart/internal/invariants"
	"github.com/graphpart/graphpart/internal/obs"
	"github.com/graphpart/graphpart/internal/partition"
)

// maxSwapCandidates bounds the per-side candidate list of one partition
// pair in one pass; the lists are gain-sorted, so the bound drops only the
// least promising swaps, and later passes see them again.
const maxSwapCandidates = 64

// Options tunes the local search.
type Options struct {
	// Capacity is the per-partition bound C; zero means ceil(m/p). Moves
	// never push a partition above C (already-overfull inputs can only
	// lose edges); swaps leave all loads unchanged.
	Capacity int
	// MaxPasses bounds full move+swap passes (default 8).
	MaxPasses int
	// MinGain is the smallest net replica reduction worth executing
	// (default 1).
	MinGain int
	// MaxSeconds is a wall-clock budget checked between passes; zero means
	// no budget. A truncated run is still a valid refinement, but which
	// pass it stops after depends on the machine — leave it zero where
	// bit-identical output matters (the deterministic-oracle tests do).
	MaxSeconds float64
}

// Stats reports what a Run call did.
type Stats struct {
	// Passes actually executed.
	Passes int
	// Moves is the number of vertex (partition -> partition) vacate
	// migrations applied.
	Moves int
	// EdgesMoved counts the edges those migrations reassigned.
	EdgesMoved int
	// Swaps is the number of boundary-edge pair exchanges applied.
	Swaps int
	// ReplicasRemoved is the net replica reduction achieved.
	ReplicasRemoved int
	// RFBefore and RFAfter are the replication factor at entry and exit.
	RFBefore, RFAfter float64
	// BalanceBefore and BalanceAfter are max-load/(m/p) at entry and exit.
	BalanceBefore, BalanceAfter float64
	// Converged reports that the last pass found nothing left to apply
	// (as opposed to stopping on MaxPasses or the time budget).
	Converged bool
}

// Run improves the assignment in place until convergence, MaxPasses or the
// time budget, and reports statistics. The assignment must be complete and
// every option finite and non-negative; capacity is not validated on entry
// (refinement accepts over-capacity inputs and only ever improves them).
func Run(g *graph.Graph, a *partition.Assignment, opts Options) (Stats, error) {
	var stats Stats
	if g == nil {
		return stats, fmt.Errorf("refine: nil graph")
	}
	// Zero means "default".
	if opts.Capacity < 0 || opts.MaxPasses < 0 || opts.MinGain < 0 ||
		!(opts.MaxSeconds >= 0) || math.IsInf(opts.MaxSeconds, 1) {
		return stats, fmt.Errorf("refine: options must be finite and non-negative: %+v", opts)
	}
	if err := partition.Validate(g, a, partition.ValidateOptions{SkipCapacity: true}); err != nil {
		return stats, fmt.Errorf("refine: %w", err)
	}
	capC := cmp.Or(opts.Capacity, partition.Capacity(g.NumEdges(), a.P()))
	maxPasses, minGain := cmp.Or(opts.MaxPasses, 8), cmp.Or(opts.MinGain, 1)
	st, err := partition.NewState(g, a)
	if err != nil {
		return stats, fmt.Errorf("refine: %w", err)
	}
	stats.RFBefore = st.RF()
	stats.BalanceBefore = st.Balance()
	sp := obs.Start("refine.run",
		obs.Int("p", a.P()), obs.Int("edges", g.NumEdges()),
		obs.Int("capacity", capC),
		obs.Int("boundary", st.NumBoundary()))
	budget := obs.StartWatch()
	r := newRunner(g, st, capC, minGain)
	for pass := 0; pass < maxPasses; pass++ {
		if opts.MaxSeconds > 0 && budget.Seconds() > opts.MaxSeconds {
			break
		}
		psp := sp.Child("refine.pass", obs.Int("pass", pass))
		w := obs.StartWatch()
		moves, edgesMoved, moveGain := r.movePhase()
		psp.Segment("refine.moves", w.Elapsed(),
			obs.Int("moves", moves), obs.Int("edges_moved", edgesMoved),
			obs.Int("replicas_removed", moveGain))
		w = obs.StartWatch()
		swaps, swapGain := r.swapPhase()
		psp.Segment("refine.swaps", w.Elapsed(),
			obs.Int("swaps", swaps), obs.Int("replicas_removed", swapGain))
		psp.EndWith(obs.Int("replicas_removed", moveGain+swapGain))
		stats.Passes++
		stats.Moves += moves
		stats.EdgesMoved += edgesMoved
		stats.Swaps += swaps
		stats.ReplicasRemoved += moveGain + swapGain
		if invariants.Enabled {
			st.AssertConsistent()
		}
		if moves+swaps == 0 {
			stats.Converged = true
			break
		}
	}
	stats.RFAfter = st.RF()
	stats.BalanceAfter = st.Balance()
	sp.EndWith(obs.Int("passes", stats.Passes), obs.Int("moves", stats.Moves),
		obs.Int("swaps", stats.Swaps),
		obs.Int("replicas_removed", stats.ReplicasRemoved),
		obs.Float("rf_after", stats.RFAfter))
	return stats, nil
}

// runner carries one Run invocation's search context and its pass scratch.
type runner struct {
	g             *graph.Graph
	st            *partition.State
	capC, minGain int

	open   []uint64 // open[(i*3+g)*ceil(p/64):]: targets j whose bucket (i, j, g) takes edges
	slab   []int32  // slab[b]: bucket b's offset in pool (0 while empty)
	fill   []uint8  // fill[b]: edges in bucket b this pass
	pool   []graph.EdgeID
	masks  []uint64         // the two endpoint presence masks of a swept edge
	parts  []int            // one vertex's partitions
	others [][]graph.Vertex // others[k]: a scored vertex's neighbours across its edges in k
	cands  []vacate         // one pass's scored moves, by ascending vertex
	edges  []graph.EdgeID   // the edges of one applied move
}

// newRunner sizes the scratch every pass reuses.
func newRunner(g *graph.Graph, st *partition.State, capC, minGain int) *runner {
	p := st.P()
	nw := (p + 63) / 64
	return &runner{
		g: g, st: st, capC: capC, minGain: minGain,
		open: make([]uint64, 3*p*nw), slab: make([]int32, 3*p*p), fill: make([]uint8, 3*p*p),
		masks: make([]uint64, 2*nw), parts: make([]int, 0, p), others: make([][]graph.Vertex, p),
	}
}

// vacate is one scored per-vertex move candidate: shift all of v's edges in
// partition `from` to partition `to` for a predicted replica reduction of
// `gain`. from < 0 marks "no candidate".
type vacate struct {
	v        graph.Vertex
	from, to int32
	gain     int32
}

// movePhase scores the best vacate move of every spanned vertex against the
// phase-start state, then applies them in ascending vertex order with exact
// re-evaluation, so earlier applications invalidate later candidates safely
// (the re-check skips them). Returns applied moves, edges reassigned and
// replicas removed.
func (r *runner) movePhase() (moves, edgesMoved, gainTotal int) {
	st := r.st
	r.cands = r.cands[:0]
	for v := 0; v < r.g.NumVertices(); v++ {
		if st.Replicas(graph.Vertex(v)) < 2 {
			continue
		}
		if cand := r.scoreVacate(graph.Vertex(v)); cand.from >= 0 {
			r.cands = append(r.cands, cand)
		}
	}
	for _, cand := range r.cands {
		v := cand.v
		gain, edges := r.vacateGain(v, int(cand.from), int(cand.to), r.edges[:0])
		r.edges = edges
		if gain < r.minGain || len(edges) == 0 {
			continue
		}
		if st.Assignment().Load(int(cand.to))+len(edges) > r.capC {
			continue
		}
		delta := 0
		for _, e := range edges {
			delta += st.Move(e, int(cand.to))
		}
		if invariants.Enabled {
			invariants.Assertf(delta == -gain,
				"vacate of vertex %d: predicted gain %d, realized %d", v, gain, -delta)
		}
		moves++
		edgesMoved += len(edges)
		gainTotal += gain
	}
	return moves, edgesMoved, gainTotal
}

// scoreVacate finds v's best (from, to, gain) vacate candidate against the
// current state: highest gain, ties to the smallest from then to. The
// runner's `others`, indexed by partition, receives the far endpoints of v's
// edges there (only v's own partitions are wiped and read).
//
//graphpart:hotpath test=TestHotPathAllocs_RefineScoring
func (r *runner) scoreVacate(v graph.Vertex) vacate {
	st := r.st
	parts := st.Partitions(v, r.parts[:0])
	for _, k := range parts {
		r.others[k] = r.others[k][:0]
	}
	nbrs := r.g.Neighbors(v)
	for i, eid := range r.g.IncidentEdges(v) {
		k, _ := st.Assignment().PartitionOf(eid)
		r.others[k] = append(r.others[k], nbrs[i])
	}
	best := vacate{v: v, from: -1}
	for _, from := range parts {
		us := r.others[from]
		for _, to := range parts {
			if to == from {
				continue
			}
			if st.Assignment().Load(to)+len(us) > r.capC {
				continue
			}
			gain := 1 // v always leaves `from`; `to` is already one of v's partitions
			for _, u := range us {
				if st.Count(u, from) == 1 {
					gain++
				}
				if st.Count(u, to) == 0 {
					gain--
				}
			}
			if gain >= r.minGain && (best.from < 0 || int32(gain) > best.gain) {
				best = vacate{v: v, from: int32(from), to: int32(to), gain: int32(gain)}
			}
		}
	}
	return best
}

// vacateGain exactly evaluates moving all of v's edges in `from` to `to`
// against the live state, returning the replica reduction and the edge list
// (empty when v has left `from`). Unlike scoreVacate it does not assume v
// currently occupies `to`.
//
//graphpart:hotpath test=TestHotPathAllocs_RefineScoring
func (r *runner) vacateGain(v graph.Vertex, from, to int, edges []graph.EdgeID) (int, []graph.EdgeID) {
	st := r.st
	gain := 1 // v leaves `from` (every edge there is moved)
	if st.Count(v, to) == 0 {
		gain--
	}
	nbrs := r.g.Neighbors(v)
	for i, eid := range r.g.IncidentEdges(v) {
		if k, _ := st.Assignment().PartitionOf(eid); k != from {
			continue
		}
		edges = append(edges, eid)
		u := nbrs[i]
		if st.Count(u, from) == 1 {
			gain++
		}
		if st.Count(u, to) == 0 {
			gain--
		}
	}
	return gain, edges
}

// swapCand is one scored boundary edge on one side of a partition pair.
type swapCand struct {
	e    graph.EdgeID
	gain int32
}

// swapPhase ranks every side's candidates in one sweep, then, in ascending
// (i, j) pair order, rank-pairs the two sides and applies each proposal with
// exact re-evaluation: the first move is applied, the second evaluated
// against that intermediate state, and the pair reverted when the combined
// realized gain falls short. Swaps never change a load.
func (r *runner) swapPhase() (swaps, gainTotal int) {
	st := r.st
	r.collectSwapCandidates()
	ci, cj := make([]swapCand, 0, 3*maxSwapCandidates), make([]swapCand, 0, 3*maxSwapCandidates)
	for i := 0; i < st.P(); i++ {
		for j := i + 1; j < st.P(); j++ {
			ci, cj = r.candidates(ci[:0], i, j), r.candidates(cj[:0], j, i)
			for t := 0; t < len(ci) && t < len(cj); t++ {
				if int(ci[t].gain+cj[t].gain) < r.minGain {
					break // both lists are gain-sorted, so no later rank can reach MinGain
				}
				e1, e2 := ci[t].e, cj[t].e
				k1, _ := st.Assignment().PartitionOf(e1)
				k2, _ := st.Assignment().PartitionOf(e2)
				if k1 != i || k2 != j {
					continue // an earlier application already moved one side
				}
				g1 := -st.Move(e1, j)
				if g1-st.MoveDelta(e2, i) < r.minGain {
					st.Move(e1, i) // revert; exactly restores the pre-swap state
					continue
				}
				swaps++
				gainTotal += g1 - st.Move(e2, i)
			}
		}
	}
	return swaps, gainTotal
}

// collectSwapCandidates fills the swap buckets in one ascending sweep over
// the boundary edges. Bucket b = (i*p+j)*3+g holds, ascending, up to
// maxSwapCandidates edges of partition i whose move into j gains g: with
// leave gain L = [count(u,i)=1] + [count(v,i)=1], g is L for targets holding
// both endpoints, L-1 for one and L-2 for neither. A full bucket (i, j, g)
// drops j from the open mask of (i, g).
//
//graphpart:hotpath test=TestHotPathAllocs_RefineScoring
func (r *runner) collectSwapCandidates() {
	st, p := r.st, r.st.P()
	nw := (p + 63) / 64
	clear(r.fill)
	clear(r.slab)
	clear(r.open)
	r.pool = r.pool[:0]
	for row := 0; row < 3*p; row++ {
		for k := 0; k < p; k++ {
			if k != row/3 {
				r.open[row*nw+k>>6] |= 1 << uint(k&63)
			}
		}
	}
	for id, ed := range r.g.Edges() {
		e := graph.EdgeID(id)
		if !st.IsBoundary(e) {
			continue
		}
		i, _ := st.Assignment().PartitionOf(e)
		leave := 0
		for _, v := range [2]graph.Vertex{ed.U, ed.V} {
			if st.Count(v, i) == 1 {
				leave++
			}
		}
		// Empty: every bucket (i, j, leave) is full, so no list reaches lower.
		if slices.Max(r.open[(i*3+leave)*nw:(i*3+leave+1)*nw]) == 0 {
			continue
		}
		clear(r.masks)
		for x, v := range [2]graph.Vertex{ed.U, ed.V} {
			for _, k := range st.Partitions(v, r.parts[:0]) {
				r.masks[x*nw+k>>6] |= 1 << uint(k&63)
			}
		}
		for w := 0; w < nw; w++ {
			mu, mv := r.masks[w], r.masks[nw+w]
			targets := [3]uint64{mu & mv, mu ^ mv, ^(mu | mv)} // gain leave, leave-1, leave-2
			for g := leave; g >= 0; g-- {
				for t := targets[leave-g] & r.open[(i*3+g)*nw+w]; t != 0; t &= t - 1 {
					b := (i*p+w<<6+mathbits.TrailingZeros64(t))*3 + g
					if r.fill[b] == 0 { // first edge this pass: claim a slab of the pool
						r.slab[b] = int32(len(r.pool))
						r.pool = slices.Grow(r.pool, maxSwapCandidates)[:len(r.pool)+maxSwapCandidates]
					}
					r.pool[int(r.slab[b])+int(r.fill[b])] = e
					if r.fill[b]++; r.fill[b] == maxSwapCandidates {
						r.open[(i*3+g)*nw+w] &^= t & -t
					}
				}
			}
		}
	}
}

// candidates appends side i's list toward j to dst: buckets (i, j, 2),
// (i, j, 1), (i, j, 0) in turn, cut to maxSwapCandidates. A zero-gain edge
// is kept: paired with a positive-gain partner the exchange still wins.
func (r *runner) candidates(dst []swapCand, i, j int) []swapCand {
	for g := 2; g >= 0; g-- {
		b := (i*r.st.P()+j)*3 + g
		for _, e := range r.pool[r.slab[b] : int(r.slab[b])+int(r.fill[b])] {
			dst = append(dst, swapCand{e: e, gain: int32(g)})
		}
	}
	return dst[:min(len(dst), maxSwapCandidates)]
}
