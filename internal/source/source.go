// Package source defines EdgeSource, the streaming substrate that decouples
// partitioners from the in-memory CSR.
//
// An EdgeSource is an iterable, re-windable stream of (EdgeID, U, V) edges
// with known vertex and edge counts. Three families of implementations are
// provided:
//
//   - GraphSource wraps a materialized *graph.Graph in any stream order
//     (the legacy path; byte-identical to the pre-source code).
//   - FileSource scans a SNAP-style edge-list file (optionally gzipped)
//     chunk by chunk and never builds a CSR, so resident memory is
//     O(vertex state), not O(|E|).
//   - GenSource wraps an internal/gen synthetic dataset, retaining only the
//     compact edge slice after generation.
//
// Partitioners that consume an EdgeSource (see partition.StreamPartitioner)
// promise O(p + maintained-state) memory beyond the source itself; the
// source decides what "maintained" costs (a CSR, a file handle, a slice).
package source

import (
	"github.com/graphpart/graphpart/internal/graph"
	"github.com/graphpart/graphpart/internal/rng"
)

// Edge is one stream element. ID is the source's edge numbering: for
// GraphSource it is the CSR EdgeID; for FileSource it is the 0-based
// position among emitted (non-comment, non-self-loop) lines.
type Edge struct {
	ID   graph.EdgeID
	U, V graph.Vertex
}

// EdgeSource is an iterable, re-windable stream of edges.
//
// Next returns (edge, true, nil) for each edge, then (zero, false, nil) at
// end of stream; errors surface I/O or parse failures. Reset rewinds to the
// beginning and must reproduce the exact same sequence — multi-pass
// algorithms (degree sketches, two-pass vertex streamers) rely on that.
// Sources are not safe for concurrent use.
type EdgeSource interface {
	// NumVertices returns the number of vertices (dense ids in [0, n)).
	NumVertices() int
	// NumEdges returns the number of edges the stream will emit.
	NumEdges() int
	// Reset rewinds the stream to the first edge.
	Reset() error
	// Next returns the next edge; ok is false at end of stream.
	Next() (e Edge, ok bool, err error)
}

// Order selects how a graph-backed stream is sequenced. The zero value is
// treated as OrderShuffled, matching the historical streaming default.
type Order int

const (
	// OrderShuffled streams edges/vertices in a seeded random order
	// (the common evaluation setting; arrival order is adversarial
	// otherwise).
	OrderShuffled Order = iota + 1
	// OrderNatural streams in EdgeID/vertex-id order.
	OrderNatural
	// OrderBFS streams in breadth-first order from a seeded random root,
	// component by component (matches how crawled graphs arrive).
	OrderBFS
)

// EdgeOrder yields the graph's EdgeIDs in the given order. This is the one
// canonical permutation: GraphSource iterates it, so every consumer of a
// graph-backed stream sees the same sequence.
func EdgeOrder(g *graph.Graph, ord Order, seed uint64) []graph.EdgeID {
	m := g.NumEdges()
	ids := make([]graph.EdgeID, m)
	for i := range ids {
		ids[i] = graph.EdgeID(i)
	}
	switch ord {
	case OrderNatural:
	case OrderBFS:
		ids = ids[:0]
		r := rng.New(seed)
		seen := make([]bool, m)
		order := vertexBFSOrder(g, r)
		for _, v := range order {
			for _, eid := range g.IncidentEdges(v) {
				if !seen[eid] {
					seen[eid] = true
					ids = append(ids, eid)
				}
			}
		}
	default: // OrderShuffled
		r := rng.New(seed)
		r.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	}
	return ids
}

// vertexBFSOrder returns all vertices in BFS order from seeded random
// roots, component by component.
func vertexBFSOrder(g *graph.Graph, r *rng.RNG) []graph.Vertex {
	n := g.NumVertices()
	seen := make([]bool, n)
	order := make([]graph.Vertex, 0, n)
	perm := r.Perm(n)
	var queue []graph.Vertex
	for _, root := range perm {
		if seen[root] {
			continue
		}
		seen[root] = true
		queue = append(queue[:0], graph.Vertex(root))
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			order = append(order, v)
			for _, w := range g.Neighbors(v) {
				if !seen[w] {
					seen[w] = true
					queue = append(queue, w)
				}
			}
		}
	}
	return order
}

// GraphSource streams a materialized graph's edges in a fixed order. It is
// the in-memory EdgeSource: O(|E|) for the permutation (nil for natural
// order) on top of the CSR it wraps.
type GraphSource struct {
	g   *graph.Graph
	ids []graph.EdgeID // nil means natural order
	pos int
}

var _ EdgeSource = (*GraphSource)(nil)

// FromGraph wraps g as an EdgeSource in the given order. ord zero defaults
// to OrderShuffled, like the streaming partitioners always have.
func FromGraph(g *graph.Graph, ord Order, seed uint64) *GraphSource {
	if ord == OrderNatural {
		return &GraphSource{g: g}
	}
	return &GraphSource{g: g, ids: EdgeOrder(g, ord, seed)}
}

// NumVertices implements EdgeSource.
func (s *GraphSource) NumVertices() int { return s.g.NumVertices() }

// NumEdges implements EdgeSource.
func (s *GraphSource) NumEdges() int { return s.g.NumEdges() }

// Reset implements EdgeSource.
func (s *GraphSource) Reset() error {
	s.pos = 0
	return nil
}

// Next implements EdgeSource.
func (s *GraphSource) Next() (Edge, bool, error) {
	if s.pos >= s.g.NumEdges() {
		return Edge{}, false, nil
	}
	id := graph.EdgeID(s.pos)
	if s.ids != nil {
		id = s.ids[s.pos]
	}
	s.pos++
	e := s.g.Edge(id)
	return Edge{ID: id, U: e.U, V: e.V}, true, nil
}

// EdgesSource streams a plain edge slice in natural order — the minimal
// in-memory source (8 bytes per edge), used by GenSource so generator CSR
// arrays can be released.
type EdgesSource struct {
	n     int
	edges []graph.Edge
	pos   int
}

var _ EdgeSource = (*EdgesSource)(nil)

// FromEdges wraps an edge slice over n vertices as an EdgeSource.
func FromEdges(n int, edges []graph.Edge) *EdgesSource {
	return &EdgesSource{n: n, edges: edges}
}

// NumVertices implements EdgeSource.
func (s *EdgesSource) NumVertices() int { return s.n }

// NumEdges implements EdgeSource.
func (s *EdgesSource) NumEdges() int { return len(s.edges) }

// Reset implements EdgeSource.
func (s *EdgesSource) Reset() error {
	s.pos = 0
	return nil
}

// Next implements EdgeSource.
func (s *EdgesSource) Next() (Edge, bool, error) {
	if s.pos >= len(s.edges) {
		return Edge{}, false, nil
	}
	e := s.edges[s.pos]
	id := graph.EdgeID(s.pos)
	s.pos++
	return Edge{ID: id, U: e.U, V: e.V}, true, nil
}
