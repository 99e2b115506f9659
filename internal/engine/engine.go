// Package engine is a PowerGraph-style gather-apply-scatter (GAS) runtime
// running on an edge-partitioned graph — the distributed-computation
// substrate that motivates the paper's problem: every spanned vertex has one
// master replica and mirrors in every other partition whose edge set touches
// it, and each superstep synchronises gather results from mirrors to the
// master and the applied value back from the master to the mirrors.
//
// The runtime is share-nothing: each partition is a machine (one goroutine)
// owning purely local state — local replica values, local adjacency, local
// activation — and the only way state crosses a partition boundary is a
// typed Message through a Transport. The transport accounts messages and
// wire bytes per link, making the cost of a high replication factor
// directly observable: with every vertex active, a superstep moves exactly
// 2 * (total replicas - masters) messages.
//
// Supersteps run in five globally barriered phases (gather, apply, scatter,
// activate, finalize), and masters fold gather contributions in canonical
// slot order, so a run is deterministic and bit-identical to RunSequential
// for any partitioning and any scheduling of the machine goroutines.
package engine

import (
	"fmt"
	"math"
	"slices"

	"github.com/graphpart/graphpart/internal/graph"
	"github.com/graphpart/graphpart/internal/invariants"
	"github.com/graphpart/graphpart/internal/obs"
	"github.com/graphpart/graphpart/internal/partition"
)

// Program is a vertex program in the gather-sum-apply-scatter model.
// Values are float64; programs needing richer state encode it.
type Program interface {
	// Name identifies the program.
	Name() string
	// Init returns vertex v's value before the first superstep.
	Init(v graph.Vertex, degree int) float64
	// Gather returns the contribution a vertex with the given value and
	// degree sends along each of its edges; a vertex's accumulator folds
	// the contributions of its neighbours. It must be a pure function of
	// its two arguments: machines compute it once per replica value and
	// reuse the result for every arc and every superstep until the value
	// changes.
	Gather(value float64, degree int) float64
	// Sum combines two gather contributions (must be commutative and
	// associative).
	Sum(a, b float64) float64
	// Apply computes v's new value from the gathered total.
	Apply(v graph.Vertex, old, gathered float64, degree int) float64
	// Converged reports whether the change from old to new is small
	// enough to deactivate the vertex this round.
	Converged(old, new float64) bool
}

// Stats aggregates what the runtime did during a run.
type Stats struct {
	// Supersteps executed (may be fewer than requested on convergence).
	Supersteps int
	// Totals is the run's cumulative traffic by message kind; its counters
	// and its Messages and Bytes methods are promoted.
	Totals
	// TotalReplicas is the number of (vertex, partition) placements.
	TotalReplicas int
	// Masters is the number of vertices with at least one edge.
	Masters int
	// PerStep is the traffic of each executed superstep.
	PerStep []Totals
	// Links is the cumulative per-link p x p traffic matrix.
	Links *TrafficMatrix
}

// Engine executes vertex programs over one partitioned graph. Build it once
// per assignment; Run may be called repeatedly but not concurrently —
// machines reuse their per-run buffers across runs.
type Engine struct {
	g *graph.Graph
	p int
	// machines[k] is partition k's share-nothing runtime.
	machines []*machine
	stats    Stats
}

// replica is one (vertex, partition) placement: the machine and the
// vertex's local id on it.
type replica struct{ k, lid int32 }

// New builds an engine from a complete edge partitioning of g. Capacity
// validation is skipped — the runtime executes whatever a partitioner
// produced, balanced or not — but the assignment must cover every edge.
//
// Two passes over g's sorted CSR build every machine, with no maps and no
// searches. Pass 1 records each vertex's replicas in machine order, gives
// each the next local id on its machine (so local ids ascend with global
// id) and elects the master: the replica with the most incident edges,
// ties to the lowest machine id. Pass 2 walks the rows again and appends
// arc j of v to v's row on machine PartitionOf(e) as canonical slot j, so
// every local row comes out in slot order; a neighbour's local id comes
// from its replica list of at most p entries.
func New(g *graph.Graph, a *partition.Assignment) (*Engine, error) {
	if err := partition.Validate(g, a, partition.ValidateOptions{SkipCapacity: true}); err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	if 4*int64(g.NumEdges()) > math.MaxInt32 { // a machine's acc holds up to 4|E| entries
		return nil, fmt.Errorf("engine: %d edges overflow the int32 accumulator index", g.NumEdges())
	}
	p, n := a.P(), g.NumVertices()
	e := &Engine{g: g, p: p, machines: make([]*machine, p)}
	// Pass 1: reps[repOff[v]:repOff[v+1]] are v's replicas. A vertex has at
	// most min(degree, p), which sizes reps up front.
	bound := 0
	for v := 0; v < n; v++ {
		bound += min(g.Degree(graph.Vertex(v)), p)
	}
	reps := make([]replica, 0, bound)
	repOff := make([]int32, n+1)
	masterOf := make([]int32, n)
	inc, touched := make([]int32, p), make([]int32, 0, p)
	// Per-machine sizes: replicas, arcs, accumulator entries (a master's
	// degree, a mirror's local arcs) and mirror-list entries.
	nVerts, nArcs, nAcc, nMir := make([]int32, p), make([]int32, p), make([]int32, p), make([]int32, p)
	for v := 0; v < n; v++ {
		touched = touched[:0]
		for _, id := range g.IncidentEdges(graph.Vertex(v)) {
			k, _ := a.PartitionOf(id)
			if inc[k] == 0 {
				touched = append(touched, int32(k))
			}
			inc[k]++
		}
		slices.Sort(touched)
		mk, best := int32(-1), int32(0)
		for _, k := range touched {
			c := inc[k]
			inc[k] = 0
			reps = append(reps, replica{k, nVerts[k]})
			nVerts[k]++
			nArcs[k] += c
			nAcc[k] += c
			if c > best {
				mk, best = k, c
			}
		}
		masterOf[v] = mk
		repOff[v+1] = int32(len(reps))
		if mk >= 0 {
			e.stats.Masters++
			nAcc[mk] += int32(g.Degree(graph.Vertex(v))) - best
			nMir[mk] += int32(len(touched)) - 1
		}
	}
	e.stats.TotalReplicas = len(reps)
	for k := range e.machines {
		e.machines[k] = newMachine(k, nVerts[k], nArcs[k], nAcc[k], nMir[k])
	}
	// Pass 2, vertex by vertex in local-id order on every machine: rows,
	// accumulator ranges, mirror lists and the reusable messages. Each
	// replica's offsets close as its vertex is done, and nArcs[k] becomes
	// machine k's arc cursor.
	clear(nArcs)
	for v := 0; v < n; v++ {
		gv := graph.Vertex(v)
		rv := reps[repOff[v]:repOff[v+1]]
		deg, mk, mlid := int32(g.Degree(gv)), masterOf[v], int32(0)
		for _, r := range rv {
			m := e.machines[r.k]
			m.verts[r.lid], m.degree[r.lid], m.masterMachine[r.lid] = gv, deg, mk
			if r.k == mk {
				mlid = r.lid
			}
		}
		nbrs := g.Neighbors(gv)
		for j, id := range g.IncidentEdges(gv) {
			k, _ := a.PartitionOf(id)
			m, x, u := e.machines[k], nArcs[k], nbrs[j]
			nArcs[k]++
			m.slot[x] = int32(j)
			for _, r := range reps[repOff[u]:repOff[u+1]] {
				if r.k == int32(k) {
					m.loc[x] = r.lid
					break
				}
			}
		}
		for _, r := range rv {
			m, i := e.machines[r.k], r.lid
			lo, hi, x, y := m.off[i], nArcs[r.k], m.accOff[i], m.mirOff[i]
			if r.k != mk {
				m.flush[i] = GatherFlush{MasterLocal: mlid, Slots: m.slot[lo:hi:hi], Contribs: m.acc[x : x+hi-lo : x+hi-lo]}
				m.notice[i].Local = mlid
				x += hi - lo
			} else {
				x += deg
				for _, o := range rv {
					if o.k != mk {
						m.mirMach[y], m.bcast[y].MirrorLocal, m.fan[y].Local = o.k, o.lid, o.lid
						y++
					}
				}
			}
			m.off[i+1], m.accOff[i+1], m.mirOff[i+1] = hi, x, y
		}
	}
	if invariants.Enabled {
		err := e.machinesStructureOK(a)
		invariants.Assertf(err == nil, "engine.New: %v", err)
	}
	return e, nil
}

// ReplicationFactor returns total replicas over active vertices — the
// engine-visible RF (isolated vertices excluded, unlike the paper's
// Definition 4 which divides by |V|).
func (e *Engine) ReplicationFactor() float64 {
	if e.stats.Masters == 0 {
		return 0
	}
	return float64(e.stats.TotalReplicas) / float64(e.stats.Masters)
}

// Run executes prog for at most maxSupersteps over an in-process transport,
// returning the final vertex values and execution stats. Vertices all start
// active; a vertex deactivates when Converged, and reactivates if any
// neighbour changed in the previous superstep. Run stops early when every
// vertex is inactive. Run must not be called concurrently on one Engine.
func (e *Engine) Run(prog Program, maxSupersteps int) ([]float64, Stats, error) {
	return e.RunWith(prog, maxSupersteps, nil)
}

// RunWith is Run over a caller-supplied Transport (nil means a fresh
// MemTransport), whose cumulative traffic lands in the returned Stats.
func (e *Engine) RunWith(prog Program, maxSupersteps int, tr Transport) ([]float64, Stats, error) {
	if prog == nil {
		return nil, Stats{}, fmt.Errorf("engine: nil program")
	}
	if maxSupersteps < 1 {
		return nil, Stats{}, fmt.Errorf("engine: need at least one superstep")
	}
	if tr == nil {
		tr = NewMemTransport(e.p)
	}
	if err := e.checkTransport(tr); err != nil {
		return nil, Stats{}, err
	}
	stats := e.stats
	activeMasters := 0
	for _, m := range e.machines {
		m.reset(prog, tr)
		activeMasters += m.activeMasters
	}
	// One long-lived goroutine per machine; the coordinator drives them
	// phase by phase over control channels. The command/done handshake is
	// the barrier — and the happens-before edge that makes the transport's
	// lock-free buffers safe.
	cmds := make([]chan int, e.p)
	done := make(chan struct{}, e.p)
	for k, m := range e.machines {
		cmds[k] = make(chan int)
		go m.loop(cmds[k], done)
	}
	defer func() {
		for _, c := range cmds {
			close(c)
		}
	}()
	rsp := obs.Start("engine.run", obs.String("program", prog.Name()),
		obs.Int("p", e.p), obs.Int("replicas", e.stats.TotalReplicas))
	for step := 0; step < maxSupersteps && activeMasters > 0; step++ {
		stats.Supersteps++
		ssp := rsp.Child("engine.superstep", obs.Int("step", step))
		for ph := 0; ph < numPhases; ph++ {
			psp := ssp.Child(phaseSpanNames[ph])
			for _, c := range cmds {
				c <- ph
			}
			for range e.machines {
				<-done
			}
			tr.Flip()
			psp.End()
		}
		activeMasters = 0
		for _, m := range e.machines {
			activeMasters += m.activeMasters
		}
		tot := tr.Totals()
		delta := tot.Sub(stats.Totals)
		stats.PerStep = append(stats.PerStep, delta)
		stats.Totals = tot
		assertStepBalanced(e.machines, step, delta)
		ssp.EndWith(obs.Int64("gather_messages", delta.GatherMessages),
			obs.Int64("apply_messages", delta.ApplyMessages),
			obs.Int64("activate_messages", delta.ActivateMessages),
			obs.Int64("bytes", delta.Bytes()),
			obs.Int("active_masters", activeMasters))
	}
	stats.Links = tr.Traffic()
	assertTrafficConsistent(stats)
	recordRunMetrics(&stats)
	rsp.EndWith(obs.Int("supersteps", stats.Supersteps),
		obs.Int64("messages", stats.Messages()),
		obs.Int64("bytes", stats.Bytes()))
	// Assemble the result from master replicas; isolated vertices keep
	// their initial value.
	n := e.g.NumVertices()
	values := make([]float64, n)
	for v := 0; v < n; v++ {
		values[v] = prog.Init(graph.Vertex(v), e.g.Degree(graph.Vertex(v)))
	}
	for _, m := range e.machines {
		for i, v := range m.verts {
			if m.isMaster(i) {
				values[v] = m.value[i]
			}
		}
	}
	return values, stats, nil
}

// checkTransport rejects a transport sized for a different machine count,
// which would otherwise fail inside a machine goroutine where nothing can
// recover the panic.
func (e *Engine) checkTransport(tr Transport) error {
	if tp := tr.Traffic().P(); tp != e.p {
		return fmt.Errorf("engine: transport is sized for %d machines, engine has %d", tp, e.p)
	}
	return nil
}

// RunSequential executes prog on g as one plain sequential loop — no
// partitions, no goroutines, no messages. It is the oracle the
// share-nothing runtime is tested against: for any complete partitioning
// and any machine scheduling, Run returns bit-identical values and the same
// superstep count, because masters fold gather contributions in the same
// canonical sorted-neighbour order this loop uses.
func RunSequential(g *graph.Graph, prog Program, maxSupersteps int) ([]float64, int, error) {
	if prog == nil {
		return nil, 0, fmt.Errorf("engine: nil program")
	}
	if maxSupersteps < 1 {
		return nil, 0, fmt.Errorf("engine: need at least one superstep")
	}
	n := g.NumVertices()
	values := make([]float64, n)
	degree := make([]int, n)
	active := make([]bool, n)
	for v := 0; v < n; v++ {
		degree[v] = g.Degree(graph.Vertex(v))
		values[v] = prog.Init(graph.Vertex(v), degree[v])
		active[v] = degree[v] > 0
	}
	gathered := make([]float64, n)
	changed := make([]bool, n)
	steps := 0
	for step := 0; step < maxSupersteps; step++ {
		anyActive := false
		for v := 0; v < n; v++ {
			if active[v] {
				anyActive = true
				break
			}
		}
		if !anyActive {
			break
		}
		steps++
		// Gather over the previous superstep's values for every active
		// vertex, folding the sorted neighbour list left to right.
		for v := 0; v < n; v++ {
			if !active[v] {
				continue
			}
			nbrs := g.Neighbors(graph.Vertex(v))
			sum := prog.Gather(values[nbrs[0]], degree[nbrs[0]])
			for _, u := range nbrs[1:] {
				sum = prog.Sum(sum, prog.Gather(values[u], degree[u]))
			}
			gathered[v] = sum
		}
		// Apply.
		for v := 0; v < n; v++ {
			changed[v] = false
			if !active[v] {
				continue
			}
			nv := prog.Apply(graph.Vertex(v), values[v], gathered[v], degree[v])
			conv := prog.Converged(values[v], nv)
			values[v] = nv
			active[v] = !conv
			changed[v] = !conv
		}
		// Scatter: neighbours of changed vertices reactivate.
		for v := 0; v < n; v++ {
			if !changed[v] {
				continue
			}
			for _, u := range g.Neighbors(graph.Vertex(v)) {
				active[u] = true
			}
		}
	}
	return values, steps, nil
}
