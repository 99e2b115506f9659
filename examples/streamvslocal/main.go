// Streaming vs local partitioning: sweeps the partition count and contrasts
// the quality of the streaming baselines (LDG, DBH) against local TLP and
// offline METIS — the trade-off that motivates the paper: offline needs the
// whole graph, streaming needs all received data, local needs only one
// partition plus its frontier in memory.
package main

import (
	"fmt"
	"log"
	"os"
	"text/tabwriter"

	graphpart "github.com/graphpart/graphpart"
)

func main() {
	d, err := graphpart.DatasetByNotation("G2")
	if err != nil {
		log.Fatal(err)
	}
	g := d.Generate(11)
	fmt.Println("graph:", graphpart.ComputeGraphStats(g))
	fmt.Println()
	fmt.Println("memory model (what each class must hold during partitioning):")
	fmt.Println("  offline  (METIS): the whole graph, every level of the hierarchy")
	fmt.Println("  streaming (LDG) : all placements made so far (grows with the stream)")
	fmt.Println("  local     (TLP) : one partition + its frontier (O(L*d))")
	fmt.Println()

	contenders := []struct {
		name string
		pt   graphpart.Partitioner
	}{
		{"TLP (local)", graphpart.NewTLP(graphpart.TLPOptions{Seed: 11})},
		{"METIS (offline)", graphpart.NewMETIS(graphpart.METISConfig{Seed: 11})},
		{"LDG (streaming)", graphpart.NewLDG(11)},
		{"DBH (streaming)", graphpart.NewDBH(11)},
	}
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "p\tTLP (local)\tMETIS (offline)\tLDG (streaming)\tDBH (streaming)")
	for _, p := range []int{5, 10, 20, 40} {
		row := fmt.Sprintf("%d", p)
		for _, c := range contenders {
			a, err := c.pt.Partition(g, p)
			if err != nil {
				log.Fatal(err)
			}
			rf, err := graphpart.ReplicationFactor(g, a)
			if err != nil {
				log.Fatal(err)
			}
			row += fmt.Sprintf("\t%.3f", rf)
		}
		fmt.Fprintln(tw, row)
	}
	if err := tw.Flush(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nlower RF is better; local TLP tracks offline quality while")
	fmt.Println("holding only a single partition in memory.")
}
