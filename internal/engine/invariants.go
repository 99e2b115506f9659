package engine

import (
	"fmt"
	"math"

	"github.com/graphpart/graphpart/internal/graph"
	"github.com/graphpart/graphpart/internal/invariants"
	"github.com/graphpart/graphpart/internal/partition"
)

// drainInbox is the machines' single drain point; in sanitizer builds it
// counts received messages so the coordinator can balance the books against
// the transport's send counters.
func (m *machine) drainInbox() []Message {
	msgs := m.tr.Drain(m.id)
	if invariants.Enabled {
		m.drained += int64(len(msgs))
	}
	return msgs
}

// assertStepBalanced checks that every message sent during a superstep was
// drained by its receiver within that superstep. The phase schedule
// guarantees this (each phase's sends are drained in a later phase before
// finalize ends), so an imbalance means a message was lost in the transport
// or delivered outside its phase — exactly the class of bug a transport
// implementation can introduce silently. The coordinator calls this between
// supersteps, after the finalize barrier, so machine counters are quiescent.
// No-op unless built with -tags graphpart_invariants.
func assertStepBalanced(machines []*machine, step int, delta Totals) {
	if !invariants.Enabled {
		return
	}
	var received int64
	for _, m := range machines {
		received += m.drained
		m.drained = 0
	}
	invariants.Assertf(received == delta.Messages(),
		"superstep %d: transport sent %d messages but machines drained %d", step, delta.Messages(), received)
}

// assertMsgCached checks that every replica's cached message equals
// prog.Gather(value, degree) bit for bit, so a write of value that skipped
// the refresh cannot feed gather a stale contribution. Called at the top of
// gather. No-op unless built with -tags graphpart_invariants.
func assertMsgCached(m *machine) {
	if !invariants.Enabled {
		return
	}
	for i, v := range m.value {
		// Format only on failure: boxing the arguments would allocate on
		// the hot path the allocation tests also run in sanitizer builds.
		if want := m.prog.Gather(v, int(m.degree[i])); math.Float64bits(m.msg[i]) != math.Float64bits(want) {
			invariants.Assertf(false, "machine %d: vertex %d caches message %v, Gather(%v, %d) = %v",
				m.id, m.verts[i], m.msg[i], v, m.degree[i], want)
		}
	}
}

// assertTrafficConsistent checks the run's per-link traffic matrix against
// the per-kind totals: the diagonal must be zero (machine-local state never
// touches the transport) and row/column sums must add up to the same grand
// totals as the per-kind counters. No-op unless built with
// -tags graphpart_invariants.
func assertTrafficConsistent(stats Stats) {
	if !invariants.Enabled {
		return
	}
	links := stats.Links
	if links == nil {
		return
	}
	for i := range links.Messages {
		invariants.Assertf(links.Messages[i][i] == 0 && links.Bytes[i][i] == 0,
			"traffic matrix diagonal [%d][%d] is nonzero: %d messages / %d bytes",
			i, i, links.Messages[i][i], links.Bytes[i][i])
	}
	invariants.Assertf(links.TotalMessages() == stats.Messages(),
		"traffic matrix totals %d messages but per-kind counters total %d",
		links.TotalMessages(), stats.Messages())
	invariants.Assertf(links.TotalBytes() == stats.Bytes(),
		"traffic matrix totals %d bytes but per-kind counters total %d",
		links.TotalBytes(), stats.Bytes())
}

// machinesStructureOK recomputes the machines from g and a and reports the
// first mismatch in: replicas and their local ids (ascending with global
// id), rows (the partition's arcs in strictly ascending slot order), master
// election (most local edges, ties to the lowest id), accumulator lengths,
// mirror lists (sorted by machine id) and Stats. New runs it in sanitizer
// builds.
func (e *Engine) machinesStructureOK(a *partition.Assignment) error {
	// next[k] is the local id machine k must give the next vertex it holds.
	inc, lid, next := make([]int32, e.p), make([]int32, e.p), make([]int32, e.p)
	replicas, masters := 0, 0
	for v := 0; v < e.g.NumVertices(); v++ {
		gv := graph.Vertex(v)
		nbrs, eids := e.g.Neighbors(gv), e.g.IncidentEdges(gv)
		clear(inc)
		for _, id := range eids {
			k, _ := a.PartitionOf(id)
			inc[k]++
		}
		mk := -1
		for k, c := range inc {
			if c == 0 {
				continue
			}
			m, i := e.machines[k], next[k]
			if int(i) == len(m.verts) || m.verts[i] != gv || m.off[i+1]-m.off[i] != c {
				return fmt.Errorf("vertex %d: machine %d local id %d is not its row of %d edges", v, k, i, c)
			}
			for x := m.off[i]; x < m.off[i+1]; x++ {
				s := m.slot[x]
				if int(s) >= len(nbrs) || x > m.off[i] && m.slot[x-1] >= s {
					return fmt.Errorf("vertex %d: machine %d row is not in strictly ascending slot order", v, k)
				}
				if pk, _ := a.PartitionOf(eids[s]); pk != k || m.verts[m.loc[x]] != nbrs[s] {
					return fmt.Errorf("vertex %d: machine %d arc %d (slot %d) does not match the graph", v, k, x, s)
				}
			}
			lid[k], next[k], replicas = i, i+1, replicas+1
			if mk < 0 || c > inc[mk] {
				mk = k
			}
		}
		if mk < 0 {
			continue
		}
		masters++
		m, mi := e.machines[mk], lid[mk]
		if got := m.accOff[mi+1] - m.accOff[mi]; got != int32(len(nbrs)) {
			return fmt.Errorf("vertex %d: master accumulator has %d entries, degree %d", v, got, len(nbrs))
		}
		x := m.mirOff[mi]
		for k, c := range inc {
			if c == 0 {
				continue
			}
			if got := e.machines[k].masterMachine[lid[k]]; got != int32(mk) {
				return fmt.Errorf("vertex %d: replica on %d names master %d, want %d", v, k, got, mk)
			}
			if k == mk {
				continue
			}
			if x == m.mirOff[mi+1] || m.mirMach[x] != int32(k) || m.bcast[x].MirrorLocal != lid[k] || m.fan[x].Local != lid[k] {
				return fmt.Errorf("vertex %d: mirror list entry %d is not machine %d local %d", v, x, k, lid[k])
			}
			x++
		}
		if x != m.mirOff[mi+1] {
			return fmt.Errorf("vertex %d: mirror list has %d extra entries", v, m.mirOff[mi+1]-x)
		}
	}
	for k, m := range e.machines {
		if int(next[k]) != len(m.verts) {
			return fmt.Errorf("machine %d holds %d replicas, want %d", k, len(m.verts), next[k])
		}
	}
	if e.stats.TotalReplicas != replicas || e.stats.Masters != masters {
		return fmt.Errorf("stats count %d replicas and %d masters, want %d and %d",
			e.stats.TotalReplicas, e.stats.Masters, replicas, masters)
	}
	return nil
}
