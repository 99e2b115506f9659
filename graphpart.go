// Package graphpart is a graph edge partitioning library built around TLP,
// the Two-stage Local Partitioning algorithm of Ji, Bu, Li and Wu ("Local
// Graph Edge Partitioning with a Two-Stage Heuristic Method", ICDCS 2019),
// together with the offline and streaming baselines the paper evaluates
// against (a METIS-style multilevel partitioner, LDG, DBH, Random, plus
// PowerGraph-Greedy, HDRF and FENNEL), quality metrics (replication factor,
// balance, per-partition modularity), synthetic dataset generators, and a
// PowerGraph-style gather-apply-scatter engine that makes the cost of
// replication observable.
//
// # Quick start
//
//	g, _, err := graphpart.LoadEdgeList("graph.txt")
//	if err != nil { ... }
//	tlp := graphpart.NewTLP(graphpart.TLPOptions{Seed: 42})
//	assignment, err := tlp.Partition(g, 10)
//	if err != nil { ... }
//	m, err := graphpart.ComputeMetrics(g, assignment)
//	fmt.Println(m.ReplicationFactor)
//
// The exported identifiers alias the internal implementation packages, so
// the full method sets of Graph, Assignment, Metrics etc. are available
// through this package without importing anything else.
package graphpart

import (
	"io"

	"github.com/graphpart/graphpart/internal/core"
	"github.com/graphpart/graphpart/internal/engine"
	"github.com/graphpart/graphpart/internal/gen"
	"github.com/graphpart/graphpart/internal/graph"
	"github.com/graphpart/graphpart/internal/partition"
	"github.com/graphpart/graphpart/internal/refine"
	"github.com/graphpart/graphpart/internal/wire"
)

// Graph is an immutable simple undirected graph in CSR form.
type Graph = graph.Graph

// Vertex identifies a vertex as a dense index in [0, NumVertices).
type Vertex = graph.Vertex

// EdgeID identifies an undirected edge as a dense index in [0, NumEdges).
type EdgeID = graph.EdgeID

// Edge is an undirected edge with canonical orientation U < V.
type Edge = graph.Edge

// Builder accumulates edges and produces an immutable Graph.
type Builder = graph.Builder

// IDMap maps between original and dense vertex ids for parsed edge lists.
type IDMap = graph.IDMap

// GraphStats summarises the structure of a graph.
type GraphStats = graph.Stats

// NewBuilder returns a builder for a graph with a fixed vertex count.
func NewBuilder(numVertices int) *Builder { return graph.NewBuilder(numVertices) }

// FromEdges builds a graph from an edge list, rejecting self-loops and
// duplicates.
func FromEdges(numVertices int, edges []Edge) (*Graph, error) {
	return graph.FromEdges(numVertices, edges)
}

// LoadEdgeList reads a SNAP-style edge list file; ".gz" files are
// transparently decompressed.
func LoadEdgeList(path string) (*Graph, *IDMap, error) {
	return graph.LoadEdgeListFile(path)
}

// ReadEdgeList parses a SNAP-style edge list from a reader.
func ReadEdgeList(r io.Reader) (*Graph, *IDMap, error) { return graph.ReadEdgeList(r) }

// SaveEdgeList writes a graph as an edge list file; ".gz" compresses.
func SaveEdgeList(path string, g *Graph) error { return graph.SaveEdgeListFile(path, g) }

// ComputeGraphStats calculates structural statistics for g.
func ComputeGraphStats(g *Graph) GraphStats { return graph.ComputeStats(g) }

// Assignment maps every edge of a graph to one of P partitions.
type Assignment = partition.Assignment

// Metrics summarises the quality of an edge partitioning.
type Metrics = partition.Metrics

// Partitioner is the contract all edge partitioners implement.
type Partitioner = partition.Partitioner

// ValidateOptions tunes structural validation of an assignment.
type ValidateOptions = partition.ValidateOptions

// Capacity returns the per-partition edge bound C = ceil(m/p).
func Capacity(numEdges, p int) int { return partition.Capacity(numEdges, p) }

// ComputeMetrics calculates the full quality metrics of a complete
// assignment.
func ComputeMetrics(g *Graph, a *Assignment) (Metrics, error) { return partition.Compute(g, a) }

// ReplicationFactor computes only RF (Definition 4 of the paper).
func ReplicationFactor(g *Graph, a *Assignment) (float64, error) {
	return partition.ReplicationFactor(g, a)
}

// Validate checks that an assignment is a valid balanced p-edge
// partitioning.
func Validate(g *Graph, a *Assignment, opts ValidateOptions) error {
	return partition.Validate(g, a, opts)
}

// TLPOptions configures the TLP partitioner; see the core package docs for
// field semantics. The zero value uses the paper's defaults.
type TLPOptions = core.Options

// TLPStats reports per-stage selection statistics of a TLP run (Table VI).
type TLPStats = core.Stats

// TLP is the paper's two-stage local partitioner.
type TLP = core.TLP

// TLPR is the fixed-ratio ablation variant (Section IV.C).
type TLPR = core.TLPR

// NewTLP returns a TLP partitioner; invalid options panic (use core.New for
// the error-returning constructor semantics via NewTLPChecked).
func NewTLP(opts TLPOptions) *TLP { return core.MustNew(opts) }

// NewTLPChecked is NewTLP returning an error instead of panicking.
func NewTLPChecked(opts TLPOptions) (*TLP, error) { return core.New(opts) }

// NewTLPR returns the TLP_R variant with stage ratio r in [0, 1].
func NewTLPR(r float64, opts TLPOptions) (*TLPR, error) { return core.NewTLPR(r, opts) }

// Dataset describes one synthetic analogue of the paper's Table III.
type Dataset = gen.Dataset

// Datasets returns the nine Table III analogues G1..G9.
func Datasets() []Dataset { return gen.Datasets() }

// DatasetByNotation returns a dataset by its paper notation (e.g. "G3").
func DatasetByNotation(notation string) (Dataset, error) {
	return gen.DatasetByNotation(notation)
}

// Engine executes gather-apply-scatter vertex programs over an
// edge-partitioned graph, counting replica-synchronisation messages.
type Engine = engine.Engine

// EngineStats aggregates engine execution counters.
type EngineStats = engine.Stats

// Program is a GAS vertex program. Its Gather(value, degree) is the
// contribution a vertex sends along each of its edges: a pure function of
// the sender's value and degree, which the engine computes once per value
// and reuses for every arc.
type Program = engine.Program

// NewEngine builds an engine from a complete edge partitioning.
func NewEngine(g *Graph, a *Assignment) (*Engine, error) { return engine.New(g, a) }

// NewPageRank returns the PageRank vertex program for an n-vertex graph.
func NewPageRank(n int, damping, tolerance float64) Program {
	return engine.NewPageRank(n, damping, tolerance)
}

// NewSSSP returns a single-source shortest paths program.
func NewSSSP(source Vertex) Program { return &engine.SSSP{Source: source} }

// NewComponents returns a connected-components labelling program.
func NewComponents() Program { return &engine.Components{} }

// Transport moves typed messages between the engine's share-nothing
// machines; it is the seam where a network transport lands.
type Transport = engine.Transport

// RunCluster executes a vertex program with one OS process per machine,
// communicating over TCP. The returned values and stats are bit-identical
// to RunSequential and to an in-process engine run. The current binary must
// call MaybeWorker early in main for re-exec workers to take over.
func RunCluster(g *Graph, a *Assignment, prog Program, maxSupersteps int) ([]float64, EngineStats, error) {
	return wire.RunCluster(g, a, prog, maxSupersteps, nil)
}

// MaybeWorker checks whether this process was spawned as a RunCluster
// machine worker; if so it runs the worker to completion and returns true,
// and the caller must exit immediately without doing anything else.
func MaybeWorker() bool { return wire.MaybeWorker() }

// ClusterTelemetry is the merged observability of one traced cluster run:
// per-worker telemetry snapshots keyed by the run's trace id, exportable as
// a single multi-lane Chrome trace with barrier-skew instants.
type ClusterTelemetry = wire.ClusterTelemetry

// RunClusterTraced is RunCluster plus cluster-wide telemetry: when
// telemetry is enabled, every worker process records spans and metrics and
// ships a snapshot back at drain. Record-only — values and stats stay
// bit-identical to RunCluster and RunSequential. Returns nil telemetry when
// telemetry is disabled.
func RunClusterTraced(g *Graph, a *Assignment, prog Program, maxSupersteps int) ([]float64, EngineStats, *ClusterTelemetry, error) {
	return wire.RunClusterTraced(g, a, prog, maxSupersteps, nil)
}

// TrafficMatrix is the per-link p x p traffic of an engine run.
type TrafficMatrix = engine.TrafficMatrix

// TrafficTotals is cumulative transport traffic by message kind.
type TrafficTotals = engine.Totals

// RunSequential executes a vertex program with a plain sequential loop —
// the single-machine oracle the share-nothing runtime is bit-identical to.
func RunSequential(g *Graph, prog Program, maxSupersteps int) ([]float64, int, error) {
	return engine.RunSequential(g, prog, maxSupersteps)
}

// RefineOptions tunes the move/swap local-search refinement.
type RefineOptions = refine.Options

// RefineStats reports what a refinement run did.
type RefineStats = refine.Stats

// Refine post-processes a finished edge partitioning in place with move/swap
// local search: per-vertex replica-reduction moves under the capacity bound
// plus load-preserving boundary-edge swaps, run to convergence or a budget.
// It never increases the replication factor, and it runs on the calling
// goroutine.
func Refine(g *Graph, a *Assignment, opts RefineOptions) (RefineStats, error) {
	return refine.Run(g, a, opts)
}

// Report is the detailed per-partition quality breakdown.
type Report = partition.Report

// PartitionDetail describes one partition inside a Report.
type PartitionDetail = partition.PartitionDetail

// BuildReport computes the detailed report for a complete assignment.
func BuildReport(g *Graph, a *Assignment) (Report, error) {
	return partition.BuildReport(g, a)
}
