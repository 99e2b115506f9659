package graphpart

// This file exports the streaming layer: EdgeSource implementations and the
// StreamPartitioner contract that lets the edge streamers (Random, DBH,
// Greedy, HDRF) and the sliding-window TLP run without an in-memory CSR.
// The vertex streamers LDG and FENNEL read vertex adjacency from a Graph
// and do not implement it. See DESIGN.md ("EdgeSource vs CSR") for the
// memory model.

import (
	"github.com/graphpart/graphpart/internal/partition"
	"github.com/graphpart/graphpart/internal/source"
	"github.com/graphpart/graphpart/internal/window"
)

// StreamEdge is one edge of a stream: its dense EdgeID plus endpoints.
type StreamEdge = source.Edge

// EdgeSource is a re-windable stream of a graph's edges with known vertex
// and edge counts. Implementations include in-memory graph-backed sources
// (NewGraphSource), file-backed sources that never build a CSR
// (OpenEdgeListSource), and generator-backed sources (NewDatasetSource).
type EdgeSource = source.EdgeSource

// StreamPartitioner is implemented by partitioners that can consume an
// EdgeSource directly instead of a *Graph.
type StreamPartitioner = partition.StreamPartitioner

// FileSource streams a SNAP-style edge list file (plain or ".gz") without
// materialising the graph; resident memory is the id map plus one scanner
// buffer.
type FileSource = source.FileSource

// FileSourceConfig tunes OpenEdgeListSource.
type FileSourceConfig = source.FileConfig

// WindowStats reports the window behaviour of a sliding-window TLP run.
type WindowStats = window.Stats

// SlidingTLP is the sliding-window TLP variant. Besides the Partitioner and
// StreamPartitioner contracts it offers PartitionStreamStats, which also
// returns WindowStats, and PartitionChannel, the lower-level channel API.
type SlidingTLP = window.Partitioner

// NewGraphSource streams an in-memory graph's edges in the given order;
// seed drives the shuffled and BFS orders. The zero order is OrderShuffled.
func NewGraphSource(g *Graph, order StreamOrder, seed uint64) EdgeSource {
	return source.FromGraph(g, order, seed)
}

// OpenEdgeListSource opens an edge-list file as an EdgeSource. It runs one
// counting pass up front to learn the vertex and edge counts, then rewinds;
// no CSR is ever built. Close it when done.
func OpenEdgeListSource(path string, cfg FileSourceConfig) (*FileSource, error) {
	return source.OpenFile(path, cfg)
}

// NewDatasetSource streams a synthetic dataset's edges without retaining
// its CSR; the edge list is generated lazily on first Next.
func NewDatasetSource(d Dataset, seed uint64) EdgeSource {
	return source.FromDataset(d, seed)
}

// StreamMetrics computes the full quality metrics of a complete assignment
// in one pass over an EdgeSource, without a CSR, at any p (its presence
// sets use ceil(p/64) words per vertex), and equals ComputeMetrics on the
// corresponding graph.
func StreamMetrics(src EdgeSource, a *Assignment) (Metrics, error) {
	return partition.StreamMetrics(src, a)
}
