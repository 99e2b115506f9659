package core

import (
	"github.com/graphpart/graphpart/internal/graph"
)

// aliveAdj is a mutable, per-vertex view of the CSR adjacency restricted to
// alive (not yet assigned) edges, stored as arcs: every edge u–v is the arc
// u→v in u's row and the arc v→u in v's row, and each arc carries a twin
// link to the slot of its reverse arc.
//
// A row's alive arcs form one contiguous prefix ordered [forward | backward]:
// arc v→u is forward when u ranks above v (ranksAbove: higher full degree,
// ties broken by the higher vertex id), so every alive edge is forward in
// exactly one of its two rows. Scanning only forward prefixes visits each
// alive edge once, which is what lets the stage-I pass count each alive
// triangle exactly once (updateStage1Scores, DESIGN.md §13).
//
// Retiring an edge needs only the slot of one of its arcs: the twin link
// names the other, and removing an arc moves at most two arcs within its
// row (the last forward arc into the hole, then the last alive arc into the
// forward part's vacated end), each move fixing one twin link.
//
// Row order is a deterministic function of the assignment history (itself
// deterministic), and every consumer of a row is order-insensitive:
// triangle counts are sums, and score folds push into heaps whose pop order
// depends only on the entry multiset (the heap order (score, deg, v) is
// strict).
//
// Memory: 2m neighbour ids + 2m edge ids + 2m twin slots (4 bytes each)
// plus two int32 counters per vertex, beyond the CSR itself. The twin links
// are built in one pass over the CSR without scratch (newAliveAdj).
type aliveAdj struct {
	off []int64        // off[v]:off[v+1] bounds v's arc slots
	nbr []graph.Vertex // neighbour ids; alive arcs are nbr[off[v]:off[v]+n[v]]
	eid []graph.EdgeID // edge ids parallel to nbr
	tw  []uint32       // tw[s] is the slot of arc s's reverse arc
	n   []int32        // alive arcs per vertex
	nf  []int32        // forward alive arcs per vertex: nbr[off[v]:off[v]+nf[v]]
}

// ranksAbove reports whether u, of full degree du, has a higher static rank
// than v, of full degree dv: a higher degree, with ties broken by vertex id.
func ranksAbove(u, v graph.Vertex, du, dv int) bool {
	return du > dv || (du == dv && u > v)
}

// newAliveAdj lays out every edge as two twin-linked arcs, all alive. Each
// edge is visited once, from its lower-id endpoint, and both arcs are
// placed immediately, so no per-edge or per-arc scratch is needed: the
// forward part of a row fills upwards from its start and the backward part
// downwards from its end, with n (arcs placed) and nf (forward arcs placed)
// as the only cursors. Both cursors end at their alive values.
func newAliveAdj(g *graph.Graph) *aliveAdj {
	nv := g.NumVertices()
	m := g.NumEdges()
	aa := &aliveAdj{
		off: make([]int64, nv+1),
		nbr: make([]graph.Vertex, 2*m),
		eid: make([]graph.EdgeID, 2*m),
		tw:  make([]uint32, 2*m),
		n:   make([]int32, nv),
		nf:  make([]int32, nv),
	}
	for v := 0; v < nv; v++ {
		aa.off[v+1] = aa.off[v] + int64(g.Degree(graph.Vertex(v)))
	}
	for v := 0; v < nv; v++ {
		vv := graph.Vertex(v)
		dv := g.Degree(vv)
		eids := g.IncidentEdges(vv)
		for i, u := range g.Neighbors(vv) {
			if u < vv {
				continue
			}
			fwd := ranksAbove(u, vv, g.Degree(u), dv)
			s := aa.place(vv, u, eids[i], fwd)
			t := aa.place(u, vv, eids[i], !fwd)
			aa.tw[s], aa.tw[t] = uint32(t), uint32(s)
		}
	}
	return aa
}

// place appends arc v→u to the forward or backward part of v's row during
// construction and returns its slot.
func (aa *aliveAdj) place(v, u graph.Vertex, e graph.EdgeID, fwd bool) int64 {
	var s int64
	if fwd {
		s = aa.off[v] + int64(aa.nf[v])
		aa.nf[v]++
	} else {
		s = aa.off[v+1] - 1 - int64(aa.n[v]-aa.nf[v])
	}
	aa.n[v]++
	aa.nbr[s], aa.eid[s] = u, e
	return s
}

// row returns the alive neighbours of v and the parallel edge ids. The
// slices alias internal storage and are invalidated by the next kill.
func (aa *aliveAdj) row(v graph.Vertex) ([]graph.Vertex, []graph.EdgeID) {
	lo := aa.off[v]
	hi := lo + int64(aa.n[v])
	return aa.nbr[lo:hi], aa.eid[lo:hi]
}

// forward returns v's alive neighbours of higher rank.
func (aa *aliveAdj) forward(v graph.Vertex) []graph.Vertex {
	lo := aa.off[v]
	return aa.nbr[lo : lo+int64(aa.nf[v])]
}

// slotOf returns the slot of v's alive arc for edge e, or -1 when e is not
// alive at v. It scans v's row and serves only the paths that retire edges
// by id rather than by slot.
func (aa *aliveAdj) slotOf(v graph.Vertex, e graph.EdgeID) int64 {
	lo := aa.off[v]
	for s := lo; s < lo+int64(aa.n[v]); s++ {
		if aa.eid[s] == e {
			return s
		}
	}
	return -1
}

// kill retires the edge whose arc sits at slot s of v's row from both
// endpoint rows. The caller may keep iterating v's row at s: the slot now
// holds an arc that was not yet visited (or lies past the alive prefix).
//
//graphpart:hotpath test=TestHotPathAllocs_Stage1Kernels
func (aa *aliveAdj) kill(v graph.Vertex, s int64) {
	u, t := aa.nbr[s], int64(aa.tw[s])
	aa.drop(v, s)
	aa.drop(u, t)
}

// drop removes the arc at slot s from v's alive prefix. A forward arc is
// replaced by the last forward arc, whose slot then takes the last alive
// arc; a backward arc is replaced by the last alive arc directly.
func (aa *aliveAdj) drop(v graph.Vertex, s int64) {
	lo := aa.off[v]
	if f := lo + int64(aa.nf[v]) - 1; s <= f {
		aa.move(s, f)
		s = f
		aa.nf[v]--
	}
	aa.move(s, lo+int64(aa.n[v])-1)
	aa.n[v]--
}

// move copies the arc at src into dst and repoints its twin at dst.
func (aa *aliveAdj) move(dst, src int64) {
	if dst == src {
		return
	}
	t := aa.tw[src]
	aa.nbr[dst], aa.eid[dst], aa.tw[dst] = aa.nbr[src], aa.eid[src], t
	aa.tw[t] = uint32(dst)
}
