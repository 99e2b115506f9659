package engine_test

import (
	"fmt"
	"sort"
	"testing"

	"github.com/graphpart/graphpart/internal/engine"
)

// TestMachinesStructure checks the flat machine layout New builds for every
// partitioner in oraclePartitioners at p in {2, 8, 32}: rows in strictly
// ascending canonical slot order that match the graph, local ids of every
// arc's neighbour, master accumulators of degree length, mirror lists equal
// to the other replicas sorted by machine id, the master election rule, and
// the replica and master counts in Stats.
func TestMachinesStructure(t *testing.T) {
	g := oracleGraph(11, 500, 2000)
	parts := oraclePartitioners()
	names := make([]string, 0, len(parts))
	for name := range parts {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		for _, p := range []int{2, 8, 32} {
			t.Run(fmt.Sprintf("%s/p%d", name, p), func(t *testing.T) {
				a, err := parts[name].Partition(g, p)
				if err != nil {
					t.Fatalf("partition: %v", err)
				}
				e, err := engine.New(g, a)
				if err != nil {
					t.Fatalf("engine.New: %v", err)
				}
				if err := engine.StructureOK(e, a); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}
