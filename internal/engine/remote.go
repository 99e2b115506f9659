package engine

import (
	"fmt"

	"github.com/graphpart/graphpart/internal/graph"
)

// NumPhases is the number of globally barriered phases in one superstep.
// External drivers (the wire package's process-per-machine cluster) execute
// phases 0..NumPhases-1 in order on every machine, with a transport Flip
// between consecutive phases — the same schedule Run uses in process.
const NumPhases = numPhases

// P returns the number of machines (partitions) the engine was built for.
func (e *Engine) P() int { return e.p }

// MasterValue is one mastered vertex's final value, as reported by a
// MachineHost at the end of an out-of-process run.
type MasterValue struct {
	// Vertex is the global vertex id.
	Vertex graph.Vertex
	// Value is the master replica's value.
	Value float64
}

// MachineHost exposes one machine's phase execution so a single partition
// can be driven from outside Run — the seam the process-per-machine TCP
// cluster stands on. A worker process builds the full Engine (machine state
// derives deterministically from the graph and assignment), takes the Host
// for its own machine id, and steps it phase by phase under an external
// coordinator; the other machines' state sits idle in that process.
//
// The determinism contract is unchanged: phases must run in order with a
// transport Flip between them, and every machine must be on the same phase
// between two barriers. MachineHost does not add synchronisation of its
// own — the external coordinator owns the barrier, exactly as Run's
// command/done handshake does in process.
type MachineHost struct {
	e *Engine
	m *machine
}

// Host returns the phase driver for machine k.
func (e *Engine) Host(k int) (*MachineHost, error) {
	if k < 0 || k >= e.p {
		return nil, fmt.Errorf("engine: no machine %d (p=%d)", k, e.p)
	}
	return &MachineHost{e: e, m: e.machines[k]}, nil
}

// Reset prepares the hosted machine for a fresh run of prog over tr, and
// returns its initial active-master count.
func (h *MachineHost) Reset(prog Program, tr Transport) (activeMasters int, err error) {
	if prog == nil {
		return 0, fmt.Errorf("engine: nil program")
	}
	if tr == nil {
		return 0, fmt.Errorf("engine: nil transport")
	}
	if err := h.e.checkTransport(tr); err != nil {
		return 0, err
	}
	h.m.reset(prog, tr)
	mHostResets.Add(1)
	return h.m.activeMasters, nil
}

// Step executes one phase (0..NumPhases-1) on the hosted machine. The
// caller must Flip the transport after every machine has stepped the phase.
func (h *MachineHost) Step(phase int) error {
	if phase < 0 || phase >= numPhases {
		return fmt.Errorf("engine: phase %d out of range [0,%d)", phase, numPhases)
	}
	h.m.step(phase)
	mHostSteps.Add(1)
	return nil
}

// ActiveMasters returns the machine's active mastered-vertex count as of the
// last finalize phase; the coordinator sums it across machines for the
// termination check.
func (h *MachineHost) ActiveMasters() int { return h.m.activeMasters }

// Replicas returns the number of vertex replicas the machine holds.
func (h *MachineHost) Replicas() int { return len(h.m.verts) }

// Masters returns the number of vertices the machine masters.
func (h *MachineHost) Masters() int {
	n := 0
	for i := range h.m.verts {
		if h.m.isMaster(i) {
			n++
		}
	}
	return n
}

// MasterValues returns the final value of every vertex this machine
// masters. Call it only between supersteps (or after the run); values are
// read from machine state the coordinator barrier must have quiesced.
func (h *MachineHost) MasterValues() []MasterValue {
	out := make([]MasterValue, 0, len(h.m.verts))
	for i, v := range h.m.verts {
		if h.m.isMaster(i) {
			out = append(out, MasterValue{Vertex: v, Value: h.m.value[i]})
		}
	}
	return out
}
