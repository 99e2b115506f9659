package engine

import (
	"github.com/graphpart/graphpart/internal/graph"
)

// The five phases of one superstep. Every machine executes the same phase
// between two global barriers, and messages sent in one phase are drained
// in a later one, so no machine ever observes another machine mid-phase —
// the determinism guarantee of the runtime.
const (
	// phaseGather: every machine computes gather contributions for its
	// active local replicas; mirrors flush theirs to the master machine.
	phaseGather = iota
	// phaseApply: masters drain flushes, fold the canonical accumulator,
	// apply, and broadcast the new value to mirrors.
	phaseApply
	// phaseScatter: machines drain broadcasts, update mirror values, run
	// the local scatter, and send activation notices to masters of
	// vertices the master may believe converged.
	phaseScatter
	// phaseActivate: masters drain notices and fan activation out to
	// mirrors of vertices whose broadcast said "inactive".
	phaseActivate
	// phaseFinalize: machines drain fan-outs, promote nextActive to
	// active, and count their active masters for the termination check.
	phaseFinalize
	numPhases
)

// machine is one share-nothing partition runtime. It owns purely local
// state — local replica values, local adjacency, local activation — and the
// only way any of it crosses the partition boundary is a Message through
// the Transport. The coordinator never reads mutable machine state while
// the machine's goroutine runs a phase; the phase command/done channels
// provide the happens-before edges.
type machine struct {
	id   int
	tr   Transport
	prog Program

	// Immutable local topology, built once in New. Local ids ascend with
	// global id, and every per-replica array is indexed by local id.

	// verts maps local id -> global vertex id.
	verts []graph.Vertex
	// degree[i] is the global degree of verts[i].
	degree []int32
	// masterMachine[i] is the machine holding verts[i]'s master replica.
	masterMachine []int32
	// off indexes the local arcs: verts[i]'s arcs on this partition are
	// loc/slot[off[i]:off[i+1]], in ascending canonical slot order. loc
	// holds the neighbour's local id and slot the arc's index in the
	// vertex's globally sorted neighbour list.
	off  []int32
	loc  []int32
	slot []int32
	// accOff indexes acc. A master's range (degree entries) is its dense
	// accumulator by canonical slot, reused every superstep; a mirror's
	// range (one entry per local arc) is the Contribs of its flush.
	accOff []int32
	acc    []float64
	// mirOff indexes a master's mirrors (an empty range for non-masters):
	// their machines in mirMach, sorted, and one reusable broadcast and
	// activation fan-out each in bcast and fan.
	mirOff  []int32
	mirMach []int32
	bcast   []ApplyBroadcast
	fan     []Activate
	// flush[i] and notice[i] are a mirror's reusable gather flush (Slots
	// and Contribs alias slot and acc) and escalation notice, addressed to
	// the master's local id. Like bcast and fan they are resent every
	// superstep: Contribs and broadcast values are refilled before sending.
	flush  []GatherFlush
	notice []Activate

	// Mutable per-run state, owned exclusively by this machine's goroutine
	// while a run is in flight.

	// value[i] is the local replica value of verts[i].
	value []float64
	// msg[i] caches prog.Gather(value[i], degree[i]), the contribution
	// verts[i] sends along each of its local arcs. Every write of value[i]
	// (reset, a master's apply, a mirror's broadcast in scatter) refreshes
	// it, so gather copies it per arc instead of calling the program.
	msg []float64
	// active[i] is this superstep's activation; nextActive accumulates the
	// next superstep's during apply/scatter/activate.
	active     []bool
	nextActive []bool
	// changed[i]: verts[i] did not converge this superstep (drives scatter).
	changed []bool
	// bcastActive[i]: for masters, the activation flag already broadcast
	// this superstep; a vertex reactivated beyond it needs a fan-out.
	bcastActive []bool
	// activeMasters is the post-finalize count of active mastered vertices;
	// the coordinator reads it between supersteps to decide termination.
	activeMasters int
	// drained counts messages received this superstep; only maintained in
	// sanitizer builds (see invariants.go), read by the coordinator at the
	// superstep boundary.
	drained int64
}

// newMachine allocates machine id's arrays for the given replica, arc,
// accumulator and mirror-list sizes; New fills them.
func newMachine(id int, verts, arcs, acc, mirrors int32) *machine {
	return &machine{id: id,
		verts: make([]graph.Vertex, verts), degree: make([]int32, verts), masterMachine: make([]int32, verts),
		off: make([]int32, verts+1), accOff: make([]int32, verts+1), mirOff: make([]int32, verts+1),
		loc: make([]int32, arcs), slot: make([]int32, arcs),
		acc:     make([]float64, acc),
		mirMach: make([]int32, mirrors), bcast: make([]ApplyBroadcast, mirrors), fan: make([]Activate, mirrors),
		flush: make([]GatherFlush, verts), notice: make([]Activate, verts),
		value: make([]float64, verts), msg: make([]float64, verts),
		active: make([]bool, verts), nextActive: make([]bool, verts),
		changed: make([]bool, verts), bcastActive: make([]bool, verts),
	}
}

// isMaster reports whether this machine masters verts[i].
func (m *machine) isMaster(i int) bool { return m.masterMachine[i] == int32(m.id) }

// loop runs phases as they are commanded until cmds closes. One goroutine
// per machine executes it for the duration of a run.
func (m *machine) loop(cmds <-chan int, done chan<- struct{}) {
	for ph := range cmds {
		m.step(ph)
		done <- struct{}{}
	}
}

func (m *machine) step(ph int) {
	switch ph {
	case phaseGather:
		m.gather()
	case phaseApply:
		m.apply()
	case phaseScatter:
		m.scatter()
	case phaseActivate:
		m.activate()
	case phaseFinalize:
		m.finalize()
	}
}

// reset prepares the machine for a fresh run of prog over tr. Every
// replica has at least one local edge, so every replicated vertex starts
// active — the same initial frontier as the sequential reference
// (degree > 0).
func (m *machine) reset(prog Program, tr Transport) {
	m.prog, m.tr = prog, tr
	for i, v := range m.verts {
		d := int(m.degree[i])
		m.value[i] = prog.Init(v, d)
		m.msg[i] = prog.Gather(m.value[i], d)
		m.nextActive[i] = true
	}
	m.promote()
}

// gather collects this machine's per-arc contributions for every active
// local replica: each arc carries its neighbour's cached msg. Masters write
// straight into their dense accumulator; mirrors fill their reusable flush
// and send it to the master machine.
//
//graphpart:hotpath test=TestHotPathAllocs_Superstep
func (m *machine) gather() {
	assertMsgCached(m)
	msg := m.msg
	for i, a := range m.active {
		if !a {
			continue
		}
		lo, hi := m.off[i], m.off[i+1]
		locs := m.loc[lo:hi]
		if m.isMaster(i) {
			acc, slots := m.acc[m.accOff[i]:m.accOff[i+1]], m.slot[lo:hi]
			for j, l := range locs {
				acc[slots[j]] = msg[l]
			}
		} else {
			f := &m.flush[i]
			contribs := f.Contribs[:len(locs)]
			for j, l := range locs {
				contribs[j] = msg[l]
			}
			m.tr.Send(m.id, int(m.masterMachine[i]), f)
		}
	}
}

// apply drains mirror flushes into the accumulators, folds each active
// mastered vertex's accumulator in canonical slot order (bit-identical to a
// sequential fold over the sorted neighbour list), applies, refreshes the
// master's cached message, and broadcasts the outcome to every mirror.
//
//graphpart:hotpath test=TestHotPathAllocs_Superstep
func (m *machine) apply() {
	for _, msg := range m.drainInbox() {
		f := msg.(*GatherFlush)
		acc, contribs := m.acc[m.accOff[f.MasterLocal]:], f.Contribs[:len(f.Slots)]
		for j, s := range f.Slots {
			acc[s] = contribs[j]
		}
	}
	prog := m.prog
	for i, v := range m.verts {
		if !m.active[i] || !m.isMaster(i) {
			continue
		}
		acc := m.acc[m.accOff[i]:m.accOff[i+1]]
		sum := acc[0]
		for _, c := range acc[1:] {
			sum = prog.Sum(sum, c)
		}
		old, d := m.value[i], int(m.degree[i])
		nv := prog.Apply(v, old, sum, d)
		conv := prog.Converged(old, nv)
		m.value[i], m.msg[i] = nv, prog.Gather(nv, d)
		m.changed[i] = !conv
		m.bcastActive[i] = !conv
		m.nextActive[i] = !conv
		for x := m.mirOff[i]; x < m.mirOff[i+1]; x++ {
			b := &m.bcast[x]
			b.Value, b.Changed, b.Active = nv, !conv, !conv
			m.tr.Send(m.id, int(m.mirMach[x]), b)
		}
	}
}

// scatter drains broadcasts (updating mirror values and their cached
// messages, changed flags and master-decided activation), then wakes the
// local neighbours of every changed replica. A wake of a vertex whose
// master may believe it inactive is escalated with an Activate notice to
// the master machine; the nextActive flag doubles as the per-machine dedup.
//
//graphpart:hotpath test=TestHotPathAllocs_Superstep
func (m *machine) scatter() {
	for _, msg := range m.drainInbox() {
		b := msg.(*ApplyBroadcast)
		i := b.MirrorLocal
		m.value[i], m.msg[i] = b.Value, m.prog.Gather(b.Value, int(m.degree[i]))
		m.changed[i] = b.Changed
		if b.Active {
			m.nextActive[i] = true
		}
	}
	for i, ch := range m.changed {
		if !ch {
			continue
		}
		for _, w := range m.loc[m.off[i]:m.off[i+1]] {
			if m.nextActive[w] {
				continue
			}
			m.nextActive[w] = true
			if mk := m.masterMachine[w]; int(mk) != m.id {
				m.tr.Send(m.id, int(mk), &m.notice[w])
			}
		}
	}
}

// activate drains notices at masters and fans activation out to the
// mirrors of every vertex that ended up active beyond what its broadcast
// said — so all replicas agree on the activation set before finalize.
//
//graphpart:hotpath test=TestHotPathAllocs_Superstep
func (m *machine) activate() {
	for _, msg := range m.drainInbox() {
		m.nextActive[msg.(*Activate).Local] = true
	}
	for i, next := range m.nextActive {
		if !next || m.bcastActive[i] || !m.isMaster(i) {
			continue
		}
		for x := m.mirOff[i]; x < m.mirOff[i+1]; x++ {
			m.tr.Send(m.id, int(m.mirMach[x]), &m.fan[x])
		}
	}
}

// finalize drains activation fan-outs and promotes the next superstep's
// activation.
//
//graphpart:hotpath test=TestHotPathAllocs_Superstep
func (m *machine) finalize() {
	for _, msg := range m.drainInbox() {
		m.nextActive[msg.(*Activate).Local] = true
	}
	m.promote()
}

// promote makes nextActive the current activation, clears the
// per-superstep flags and counts the active masters the coordinator uses
// for the termination check.
func (m *machine) promote() {
	copy(m.active, m.nextActive)
	clear(m.nextActive)
	clear(m.changed)
	clear(m.bcastActive)
	m.activeMasters = 0
	for i, a := range m.active {
		if a && m.isMaster(i) {
			m.activeMasters++
		}
	}
}
