package partition

import (
	"fmt"

	"github.com/graphpart/graphpart/internal/source"
)

// StreamPartitioner is the contract for partitioners that consume an edge
// stream instead of a materialized graph. Implementations promise
// O(p + maintained-state) memory beyond what the source itself holds —
// typically O(n) vertex state (replica sets, degree sketches) but never
// O(|E|) edge storage besides the returned Assignment.
//
// A partitioner may implement both interfaces; the graph-based Partition is
// then equivalent to PartitionStream over a GraphSource in the
// partitioner's configured order.
type StreamPartitioner interface {
	// Name identifies the algorithm in experiment output.
	Name() string
	// PartitionStream assigns every edge of src to one of p partitions.
	// The source may be consumed multiple times (Reset) by multi-pass
	// algorithms.
	PartitionStream(src source.EdgeSource, p int) (*Assignment, error)
}

// StreamMetrics computes the paper's quality metrics from an EdgeSource
// and a complete assignment, without a CSR. It matches Compute exactly for
// any source that enumerates the edges of a simple graph once per pass
// (vertex degrees are counted from the stream, which for a simple graph
// equals the CSR degree), at any partition count.
func StreamMetrics(src source.EdgeSource, a *Assignment) (Metrics, error) {
	if a.NumEdges() != src.NumEdges() {
		return Metrics{}, fmt.Errorf("partition: assignment covers %d edges, source has %d", a.NumEdges(), src.NumEdges())
	}
	if err := src.Reset(); err != nil {
		return Metrics{}, fmt.Errorf("partition: resetting source for metrics: %w", err)
	}
	pr := newPresence(src.NumVertices(), a.P())
	deg := make([]int64, src.NumVertices())
	for {
		e, ok, err := src.Next()
		if err != nil {
			return Metrics{}, fmt.Errorf("partition: streaming metrics: %w", err)
		}
		if !ok {
			break
		}
		if k, ok := a.PartitionOf(e.ID); ok {
			pr.add(k, e.U, e.V)
		} else {
			pr.skip(e.ID)
		}
		deg[e.U]++
		deg[e.V]++
	}
	if err := pr.err(); err != nil {
		return Metrics{}, err
	}
	return pr.metrics(a, src.NumEdges(), func(v int) int64 { return deg[v] }), nil
}
