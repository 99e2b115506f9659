package partition

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"text/tabwriter"

	"github.com/graphpart/graphpart/internal/graph"
)

// PartitionDetail describes one partition of a finished assignment.
type PartitionDetail struct {
	// ID is the partition index.
	ID int `json:"id"`
	// Edges is |E(P_k)|.
	Edges int `json:"edges"`
	// Vertices is |V(P_k)| (replicas hosted).
	Vertices int `json:"vertices"`
	// Masters counts vertices whose majority of edges live here (the
	// natural master placement); Mirrors = Vertices - Masters under the
	// most-incident-partition rule.
	Masters int `json:"masters"`
	// BoundaryVertices counts replicas shared with other partitions.
	BoundaryVertices int `json:"boundary_vertices"`
	// Modularity is the paper's M(P_k); +Inf marshals as null.
	Modularity float64 `json:"modularity"`
}

// Report is the full quality breakdown of an edge partitioning.
type Report struct {
	// P is the partition count.
	P int `json:"p"`
	// Vertices / Edges describe the input graph.
	Vertices int `json:"vertices"`
	Edges    int `json:"edges"`
	// Capacity is C = ceil(m/p).
	Capacity int `json:"capacity"`
	// ReplicationFactor, Balance and SpannedVertices mirror Metrics.
	ReplicationFactor float64 `json:"replication_factor"`
	Balance           float64 `json:"balance"`
	SpannedVertices   int     `json:"spanned_vertices"`
	// Partitions holds the per-partition details.
	Partitions []PartitionDetail `json:"partitions"`
}

// BuildReport computes the detailed report for a complete assignment.
func BuildReport(g *graph.Graph, a *Assignment) (Report, error) {
	m, pr, err := compute(g, a)
	if err != nil {
		return Report{}, err
	}
	p := a.P()
	rep := Report{
		P:                 p,
		Vertices:          g.NumVertices(),
		Edges:             g.NumEdges(),
		Capacity:          Capacity(g.NumEdges(), p),
		ReplicationFactor: m.ReplicationFactor,
		Balance:           m.Balance,
		SpannedVertices:   m.SpannedVertices,
		Partitions:        make([]PartitionDetail, p),
	}
	for k := range rep.Partitions {
		rep.Partitions[k] = PartitionDetail{ID: k, Edges: a.Load(k), Modularity: m.Modularity[k]}
	}
	// inc[k] counts v's edges in partition k while v is visited; only v's
	// own partitions are written, and they are cleared again after.
	inc := make([]int32, p)
	for v := 0; v < g.NumVertices(); v++ {
		for _, id := range g.IncidentEdges(graph.Vertex(v)) {
			k, _ := a.PartitionOf(id)
			inc[k]++
		}
		boundary := pr.replicas(v) > 1
		// Master rule: most incident edges, lowest partition id on ties —
		// matches the engine and cluster packages.
		master, most := -1, int32(0)
		pr.each(v, func(k int) {
			d := &rep.Partitions[k]
			d.Vertices++
			if boundary {
				d.BoundaryVertices++
			}
			if inc[k] > most {
				master, most = k, inc[k]
			}
			inc[k] = 0
		})
		if master >= 0 {
			rep.Partitions[master].Masters++
		}
	}
	return rep, nil
}

// WriteText renders the report as an aligned table.
func (r Report) WriteText(w io.Writer) error {
	fmt.Fprintf(w, "p=%d |V|=%d |E|=%d C=%d RF=%.4f balance=%.4f spanned=%d\n",
		r.P, r.Vertices, r.Edges, r.Capacity, r.ReplicationFactor, r.Balance, r.SpannedVertices)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "part\tedges\tvertices\tmasters\tboundary\tmodularity")
	for _, d := range r.Partitions {
		mod := fmt.Sprintf("%.3f", d.Modularity)
		if math.IsInf(d.Modularity, 1) {
			mod = "inf"
		}
		fmt.Fprintf(tw, "%d\t%d\t%d\t%d\t%d\t%s\n",
			d.ID, d.Edges, d.Vertices, d.Masters, d.BoundaryVertices, mod)
	}
	if err := tw.Flush(); err != nil {
		return fmt.Errorf("partition: flushing report: %w", err)
	}
	return nil
}

// MarshalJSON implements json.Marshaler, mapping +Inf modularities (which
// encoding/json rejects) to null.
func (d PartitionDetail) MarshalJSON() ([]byte, error) {
	type alias PartitionDetail
	if math.IsInf(d.Modularity, 1) || math.IsNaN(d.Modularity) {
		return json.Marshal(struct {
			alias
			Modularity *float64 `json:"modularity"`
		}{alias: alias(d), Modularity: nil})
	}
	return json.Marshal(alias(d))
}

// WriteJSON renders the report as indented JSON.
func (r Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(r); err != nil {
		return fmt.Errorf("partition: encoding report: %w", err)
	}
	return nil
}
