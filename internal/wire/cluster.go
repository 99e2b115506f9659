package wire

import (
	"encoding/binary"
	"fmt"
	"math"
	"net"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/graphpart/graphpart/internal/engine"
	"github.com/graphpart/graphpart/internal/graph"
	"github.com/graphpart/graphpart/internal/obs"
	"github.com/graphpart/graphpart/internal/partition"
)

// EnvWorker is the environment variable that turns a process into a cluster
// worker. Its value is "<machine-id>@<coordinator-control-address>"; the
// coordinator sets it when spawning workers, and MaybeWorker reacts to it.
const EnvWorker = "GRAPHPART_WIRE_WORKER"

// clusterIOTimeout bounds every blocking control-plane read and write. It is
// deliberately generous: a phase on a large graph can take a while, and the
// timeout only needs to catch a dead peer, not a slow one.
const clusterIOTimeout = 2 * time.Minute

// maxMachines bounds a cluster's machine count. Every machine is a worker
// process with a data connection to every other one, so a larger cluster
// cannot open its mesh on one host; the bound also keeps a malformed spec
// header from sizing a worker's per-machine tables.
const maxMachines = 1024

// specChunk is the number of edges (or edge parts) per spec stream chunk
// frame: 65536 edges is a 512 KiB edges frame, far below MaxFrameSize.
const specChunk = 65536

// ClusterOptions configures RunCluster.
type ClusterOptions struct {
	// Command is the worker argv. The command must call MaybeWorker early
	// (before doing anything else of consequence); test binaries do this
	// from TestMain. Empty means re-execute the current binary with no
	// arguments.
	Command []string
}

// clusterProtocolVersion is the control-protocol version the coordinator
// stamps into the trace-context frame; workers reject a mismatch instead of
// guessing at frame layouts. Version 2 added the frameTrace/frameTelemetry
// pair (version 1 was the pre-trace protocol, which had no version frame).
// Version 3 made framePhase run a whole superstep: one empty phase frame and
// one phase-done reply per superstep instead of one pair per phase.
// Version 4 made the frameTelemetry payload JSON (obs.ProcessSnapshot.Encode)
// instead of a binary snapshot.
const clusterProtocolVersion = 4

// RunCluster executes prog over g and a with one OS process per machine —
// the engine's machines separated by real process and socket boundaries.
// Each worker process rebuilds the engine deterministically from the graph
// and assignment shipped over the control connection, hosts exactly one
// machine via engine.Host, and joins a TCP data mesh with its peers; this
// coordinator drives the phase schedule Run uses in process, so the returned
// values are bit-identical to Run and RunSequential. Stats are assembled
// from per-worker reports: byte counts are framed wire bytes, and the
// traffic matrix merges each worker's sender-side row.
func RunCluster(g *graph.Graph, a *partition.Assignment, prog engine.Program, maxSupersteps int, opt *ClusterOptions) ([]float64, engine.Stats, error) {
	values, stats, _, err := runCluster(g, a, prog, maxSupersteps, opt, false)
	return values, stats, err
}

// RunClusterTraced is RunCluster plus cluster-wide telemetry collection:
// when telemetry is enabled in this process, every worker records its own
// spans and metrics and ships a snapshot back at drain, returned as a
// ClusterTelemetry for merged-trace export. With telemetry disabled it
// behaves exactly like RunCluster and returns a nil ClusterTelemetry.
// Telemetry stays record-only either way: the returned values and stats are
// bit-identical to RunCluster and RunSequential.
func RunClusterTraced(g *graph.Graph, a *partition.Assignment, prog engine.Program, maxSupersteps int, opt *ClusterOptions) ([]float64, engine.Stats, *ClusterTelemetry, error) {
	return runCluster(g, a, prog, maxSupersteps, opt, obs.Enabled())
}

func runCluster(g *graph.Graph, a *partition.Assignment, prog engine.Program, maxSupersteps int, opt *ClusterOptions, collect bool) ([]float64, engine.Stats, *ClusterTelemetry, error) {
	if prog == nil {
		return nil, engine.Stats{}, nil, fmt.Errorf("wire: nil program")
	}
	if maxSupersteps < 1 {
		return nil, engine.Stats{}, nil, fmt.Errorf("wire: need at least one superstep")
	}
	p := a.P()
	if p > maxMachines {
		return nil, engine.Stats{}, nil, fmt.Errorf("wire: %d machines, a cluster runs at most %d", p, maxMachines)
	}
	if a.NumEdges() != g.NumEdges() {
		return nil, engine.Stats{}, nil, fmt.Errorf("wire: assignment covers %d edges, graph has %d", a.NumEdges(), g.NumEdges())
	}
	// Encode the spec (program, graph, assignment) before any worker
	// exists, so an unshippable program or an incomplete assignment fails
	// here instead of after p processes have started.
	frames, err := specFrames(prog, g, a, maxSupersteps)
	if err != nil {
		return nil, engine.Stats{}, nil, err
	}
	command, err := opt.commandOrSelf()
	if err != nil {
		return nil, engine.Stats{}, nil, err
	}

	traceID := newTraceID()
	sp := obs.Start("wire.cluster", obs.String("program", prog.Name()), obs.Int("p", p),
		obs.Int64("trace_id", int64(traceID)))
	defer sp.End()

	c := &cluster{p: p}
	defer c.teardown()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, engine.Stats{}, nil, fmt.Errorf("wire: cluster control listener: %w", err)
	}
	c.ln = ln

	// Spawn one worker per machine; each dials back and identifies itself
	// with a hello frame.
	for k := 0; k < p; k++ {
		cmd := exec.Command(command[0], command[1:]...)
		cmd.Env = append(os.Environ(), fmt.Sprintf("%s=%d@%s", EnvWorker, k, ln.Addr()))
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			return nil, engine.Stats{}, nil, fmt.Errorf("wire: start worker %d: %w", k, err)
		}
		c.procs = append(c.procs, cmd)
	}
	if err := c.acceptWorkers(); err != nil {
		return nil, engine.Stats{}, nil, err
	}

	// Stamp trace context into the control stream before anything else: the
	// versioned frame pins the protocol both sides speak, carries the run's
	// trace id, and tells workers whether to ship telemetry back at drain.
	tctx := make([]byte, 0, traceCtxSize)
	tctx = binary.BigEndian.AppendUint16(tctx, clusterProtocolVersion)
	tctx = binary.BigEndian.AppendUint64(tctx, traceID)
	var flags byte
	if collect {
		flags |= traceFlagCollect
	}
	tctx = append(tctx, flags)
	for _, w := range c.workers {
		if err := w.writeFrame(frameTrace, tctx); err != nil {
			return nil, engine.Stats{}, nil, fmt.Errorf("wire: trace context to worker %d: %w", w.id, err)
		}
	}

	// Ship the spec to every worker.
	if err := c.broadcastRaw(frames); err != nil {
		return nil, engine.Stats{}, nil, err
	}

	// Collect mesh listen addresses, broadcast the table, await readiness.
	addrs := make([]string, p)
	for _, w := range c.workers {
		payload, err := w.expect(frameAddr)
		if err != nil {
			return nil, engine.Stats{}, nil, err
		}
		addrs[w.id] = string(payload)
	}
	var addrBuf []byte
	addrBuf = binary.BigEndian.AppendUint32(addrBuf, uint32(p))
	for _, s := range addrs {
		addrBuf = binary.BigEndian.AppendUint32(addrBuf, uint32(len(s)))
		addrBuf = append(addrBuf, s...)
	}
	var stats engine.Stats
	activeMasters := 0
	for _, w := range c.workers {
		if err := w.writeFrame(frameAddrs, addrBuf); err != nil {
			return nil, engine.Stats{}, nil, fmt.Errorf("wire: addrs to worker %d: %w", w.id, err)
		}
	}
	for _, w := range c.workers {
		payload, err := w.expect(frameReady)
		if err != nil {
			return nil, engine.Stats{}, nil, err
		}
		if len(payload) != 12 {
			return nil, engine.Stats{}, nil, fmt.Errorf("wire: worker %d ready payload %d bytes, want 12", w.id, len(payload))
		}
		stats.TotalReplicas += int(binary.BigEndian.Uint32(payload[0:4]))
		stats.Masters += int(binary.BigEndian.Uint32(payload[4:8]))
		activeMasters += int(binary.BigEndian.Uint32(payload[8:12]))
	}

	// The superstep loop: one control round trip per superstep. Each worker
	// runs the NumPhases phases Run drives in process, the mesh Flip closing
	// every phase as the global barrier, and answers with its active-master
	// count and cumulative traffic totals.
	for step := 0; step < maxSupersteps && activeMasters > 0; step++ {
		stats.Supersteps++
		ssp := sp.Child("wire.cluster.superstep", obs.Int("step", step))
		for _, w := range c.workers {
			if err := w.writeFrame(framePhase, nil); err != nil {
				return nil, engine.Stats{}, nil, fmt.Errorf("wire: superstep %d to worker %d: %w", step, w.id, err)
			}
		}
		activeMasters = 0
		var tot engine.Totals
		for _, w := range c.workers {
			payload, err := w.expect(framePhaseDone)
			if err != nil {
				return nil, engine.Stats{}, nil, err
			}
			if len(payload) != 4+totalsSize {
				return nil, engine.Stats{}, nil, fmt.Errorf("wire: worker %d phase-done payload %d bytes, want %d", w.id, len(payload), 4+totalsSize)
			}
			activeMasters += int(binary.BigEndian.Uint32(payload[0:4]))
			wt, err := decodeTotals(payload[4:])
			if err != nil {
				return nil, engine.Stats{}, nil, fmt.Errorf("wire: worker %d: %w", w.id, err)
			}
			tot = tot.Add(wt)
		}
		delta := tot.Sub(stats.Totals)
		stats.PerStep = append(stats.PerStep, delta)
		stats.Totals = tot
		ssp.EndWith(obs.Int64("messages", delta.Messages()),
			obs.Int64("bytes", delta.Bytes()),
			obs.Int("active_masters", activeMasters))
	}

	// Finish: collect master values and per-worker traffic rows.
	n := g.NumVertices()
	values := make([]float64, n)
	for v := 0; v < n; v++ {
		values[v] = prog.Init(graph.Vertex(v), g.Degree(graph.Vertex(v)))
	}
	links := engine.NewTrafficMatrix(p)
	for _, w := range c.workers {
		if err := w.writeFrame(frameFinish, nil); err != nil {
			return nil, engine.Stats{}, nil, fmt.Errorf("wire: finish to worker %d: %w", w.id, err)
		}
	}
	for _, w := range c.workers {
		payload, err := w.expect(frameResult)
		if err != nil {
			return nil, engine.Stats{}, nil, err
		}
		if err := decodeResult(payload, w.id, p, n, values, links); err != nil {
			return nil, engine.Stats{}, nil, fmt.Errorf("wire: worker %d result: %w", w.id, err)
		}
	}
	stats.Links = links

	// Telemetry upload: each worker ships its process snapshot after its
	// result. Strictly record-only — the values and stats above are already
	// final before the first telemetry frame is read.
	var ct *ClusterTelemetry
	if collect {
		ct = &ClusterTelemetry{TraceID: traceID, Workers: make([]obs.ProcessSnapshot, 0, p)}
		for _, w := range c.workers {
			payload, err := w.expect(frameTelemetry)
			if err != nil {
				return nil, engine.Stats{}, nil, err
			}
			snap, err := obs.DecodeSnapshot(payload)
			if err != nil {
				return nil, engine.Stats{}, nil, fmt.Errorf("wire: worker %d telemetry: %w", w.id, err)
			}
			ct.Workers = append(ct.Workers, snap)
		}
	}

	if err := c.waitWorkers(); err != nil {
		return nil, engine.Stats{}, nil, err
	}
	sp.EndWith(obs.Int("supersteps", stats.Supersteps),
		obs.Int64("messages", stats.Messages()),
		obs.Int64("bytes", stats.Bytes()))
	return values, stats, ct, nil
}

// commandOrSelf resolves the worker argv, defaulting to the current binary.
func (o *ClusterOptions) commandOrSelf() ([]string, error) {
	if o != nil && len(o.Command) > 0 {
		return o.Command, nil
	}
	self, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("wire: cannot determine worker command: %w", err)
	}
	return []string{self}, nil
}

// cluster is the coordinator's handle on the worker fleet.
type cluster struct {
	p       int
	ln      net.Listener
	procs   []*exec.Cmd
	workers []*workerLink // indexed by machine id once acceptWorkers returns
	waited  bool
}

// workerLink is one control connection to a worker process.
type workerLink struct {
	id   int
	conn net.Conn
	rd   *Reader
}

// writeRaw sends pre-encoded frames with a deadline.
func (w *workerLink) writeRaw(frames []byte) error {
	_ = w.conn.SetWriteDeadline(wallDeadline(clusterIOTimeout))
	_, err := w.conn.Write(frames)
	return err
}

// broadcastRaw writes the same pre-encoded frames to every worker at once,
// one writer goroutine per link, and returns the lowest worker's error.
func (c *cluster) broadcastRaw(frames []byte) error {
	errs := make([]error, len(c.workers))
	var wg sync.WaitGroup
	for i, w := range c.workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := w.writeRaw(frames); err != nil {
				errs[i] = fmt.Errorf("wire: spec to worker %d: %w", w.id, err)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// writeFrame sends one control frame with a deadline.
func (w *workerLink) writeFrame(kind byte, payload []byte) error {
	_ = w.conn.SetWriteDeadline(wallDeadline(clusterIOTimeout))
	return writeFrame(w.conn, kind, payload)
}

// expect reads the next frame and requires it to be of the given kind. The
// returned payload is valid until the next read on this link.
func (w *workerLink) expect(kind byte) ([]byte, error) {
	_ = w.conn.SetReadDeadline(wallDeadline(clusterIOTimeout))
	got, payload, err := w.rd.ReadFrame()
	if err != nil {
		return nil, fmt.Errorf("wire: control read from worker %d (want kind %#02x): %w", w.id, kind, err)
	}
	if got != kind {
		return nil, fmt.Errorf("wire: worker %d sent control frame %#02x, want %#02x", w.id, got, kind)
	}
	return payload, nil
}

// acceptWorkers collects one hello-identified control connection per machine.
func (c *cluster) acceptWorkers() error {
	c.workers = make([]*workerLink, c.p)
	if tl, ok := c.ln.(*net.TCPListener); ok {
		_ = tl.SetDeadline(wallDeadline(setupTimeout))
	}
	for i := 0; i < c.p; i++ {
		conn, err := c.ln.Accept()
		if err != nil {
			return fmt.Errorf("wire: accept worker control connection: %w", err)
		}
		_ = conn.SetReadDeadline(wallDeadline(setupTimeout))
		rd := NewReader(conn)
		kind, payload, err := rd.ReadFrame()
		if err != nil || kind != frameHello || len(payload) != 4 {
			conn.Close()
			return fmt.Errorf("wire: bad worker hello (kind %#02x): %v", kind, err)
		}
		id := int(int32(binary.BigEndian.Uint32(payload)))
		if id < 0 || id >= c.p || c.workers[id] != nil {
			conn.Close()
			return fmt.Errorf("wire: invalid or duplicate worker id %d in hello", id)
		}
		c.workers[id] = &workerLink{id: id, conn: conn, rd: rd}
	}
	return nil
}

// waitWorkers reaps all worker processes after a clean finish.
func (c *cluster) waitWorkers() error {
	c.waited = true
	var firstErr error
	for k, cmd := range c.procs {
		if err := cmd.Wait(); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("wire: worker %d exited: %w", k, err)
		}
	}
	return firstErr
}

// teardown releases coordinator resources; on error paths it also kills any
// workers that have not been reaped.
func (c *cluster) teardown() {
	for _, w := range c.workers {
		if w != nil {
			w.conn.Close()
		}
	}
	if c.ln != nil {
		c.ln.Close()
	}
	if !c.waited {
		for _, cmd := range c.procs {
			if cmd.Process != nil {
				_ = cmd.Process.Kill()
			}
		}
		for _, cmd := range c.procs {
			_ = cmd.Wait()
		}
	}
}

// specFrames encodes the full spec stream: one header frame, then the graph
// edges and edge assignments in bounded chunks.
func specFrames(prog engine.Program, g *graph.Graph, a *partition.Assignment, maxSupersteps int) ([]byte, error) {
	n, m := g.NumVertices(), g.NumEdges()
	hdr := make([]byte, 0, 4+4+programSpecSize+4+4)
	hdr = binary.BigEndian.AppendUint32(hdr, uint32(a.P()))
	hdr = binary.BigEndian.AppendUint32(hdr, uint32(maxSupersteps))
	hdr, err := appendProgram(hdr, prog)
	if err != nil {
		return nil, err
	}
	hdr = binary.BigEndian.AppendUint32(hdr, uint32(n))
	hdr = binary.BigEndian.AppendUint32(hdr, uint32(m))

	buf := appendFrameHeader(nil, frameSpec, len(hdr))
	buf = append(buf, hdr...)
	edges := g.Edges()
	for start := 0; start < m; start += specChunk {
		end := min(start+specChunk, m)
		buf = appendFrameHeader(buf, frameEdges, 4+8*(end-start))
		buf = binary.BigEndian.AppendUint32(buf, uint32(start))
		for _, e := range edges[start:end] {
			buf = binary.BigEndian.AppendUint32(buf, uint32(e.U))
			buf = binary.BigEndian.AppendUint32(buf, uint32(e.V))
		}
	}
	for start := 0; start < m; start += specChunk {
		end := min(start+specChunk, m)
		buf = appendFrameHeader(buf, frameParts, 4+4*(end-start))
		buf = binary.BigEndian.AppendUint32(buf, uint32(start))
		for e := start; e < end; e++ {
			k, ok := a.PartitionOf(graph.EdgeID(e))
			if !ok {
				return nil, fmt.Errorf("wire: edge %d is unassigned; a cluster run needs a complete partitioning", e)
			}
			buf = binary.BigEndian.AppendUint32(buf, uint32(k))
		}
	}
	return buf, nil
}

// decodeResult merges one worker's result frame into the values slice and
// the global traffic matrix.
func decodeResult(payload []byte, id, p, n int, values []float64, links *engine.TrafficMatrix) error {
	if len(payload) < 4 {
		return fmt.Errorf("result payload %d bytes, want at least 4", len(payload))
	}
	count := int(binary.BigEndian.Uint32(payload[0:4]))
	want := 4 + 12*count + 16*p
	if len(payload) != want {
		return fmt.Errorf("result payload %d bytes does not match %d masters over p=%d (want %d)", len(payload), count, p, want)
	}
	off := 4
	for i := 0; i < count; i++ {
		v := int(binary.BigEndian.Uint32(payload[off : off+4]))
		if v < 0 || v >= n {
			return fmt.Errorf("master vertex %d out of range [0,%d)", v, n)
		}
		values[v] = math.Float64frombits(binary.BigEndian.Uint64(payload[off+4 : off+12]))
		off += 12
	}
	for to := 0; to < p; to++ {
		links.Messages[id][to] = int64(binary.BigEndian.Uint64(payload[off : off+8]))
		off += 8
	}
	for to := 0; to < p; to++ {
		links.Bytes[id][to] = int64(binary.BigEndian.Uint64(payload[off : off+8]))
		off += 8
	}
	return nil
}

// MaybeWorker turns the process into a cluster worker when EnvWorker is set:
// it runs the worker protocol to completion and returns true, meaning the
// caller should exit immediately (a test binary's TestMain returns without
// running tests). It returns false in ordinary processes. A worker that
// fails prints the error to stderr and exits nonzero.
func MaybeWorker() bool {
	env := os.Getenv(EnvWorker)
	if env == "" {
		return false
	}
	if err := runWorker(env); err != nil {
		fmt.Fprintf(os.Stderr, "wire worker (%s): %v\n", env, err)
		os.Exit(1)
	}
	return true
}

// runWorker is the worker side of the cluster protocol: rebuild the engine
// from the shipped spec, host one machine, join the data mesh, and execute
// phases under the coordinator's control.
func runWorker(env string) error {
	idStr, ctrlAddr, ok := strings.Cut(env, "@")
	if !ok {
		return fmt.Errorf("malformed %s value %q, want id@addr", EnvWorker, env)
	}
	id, err := strconv.Atoi(idStr)
	if err != nil {
		return fmt.Errorf("malformed worker id %q: %v", idStr, err)
	}
	conn, err := net.DialTimeout("tcp", ctrlAddr, setupTimeout)
	if err != nil {
		return fmt.Errorf("dial coordinator %s: %w", ctrlAddr, err)
	}
	defer conn.Close()
	link := &workerLink{id: id, conn: conn, rd: NewReader(conn)}
	hello := binary.BigEndian.AppendUint32(nil, uint32(id))
	if err := link.writeFrame(frameHello, hello); err != nil {
		return fmt.Errorf("hello: %w", err)
	}

	// Trace context is the first coordinator frame: validate the protocol
	// version before trusting any later frame layout, then adopt the run's
	// trace id and (if asked) start recording for the drain-time upload.
	_ = conn.SetReadDeadline(wallDeadline(setupTimeout))
	tctx, err := link.expect(frameTrace)
	if err != nil {
		return err
	}
	if len(tctx) != traceCtxSize {
		return fmt.Errorf("trace context payload %d bytes, want %d", len(tctx), traceCtxSize)
	}
	if v := binary.BigEndian.Uint16(tctx[0:2]); v != clusterProtocolVersion {
		return fmt.Errorf("coordinator speaks cluster protocol v%d, this worker speaks v%d", v, clusterProtocolVersion)
	}
	traceID := binary.BigEndian.Uint64(tctx[2:10])
	collect := tctx[10]&traceFlagCollect != 0
	if collect {
		obs.Enable()
	}
	wsp := obs.Start("wire.worker", obs.Int("machine", id),
		obs.Int64("trace_id", int64(traceID)))

	g, a, prog, err := readSpec(link)
	if err != nil {
		return err
	}
	eng, err := engine.New(g, a)
	if err != nil {
		return err
	}
	host, err := eng.Host(id)
	if err != nil {
		return err
	}

	tr, meshAddr, err := ListenMesh(eng.P(), id)
	if err != nil {
		return err
	}
	defer tr.Close()
	if err := link.writeFrame(frameAddr, []byte(meshAddr)); err != nil {
		return fmt.Errorf("addr: %w", err)
	}
	payload, err := link.expect(frameAddrs)
	if err != nil {
		return err
	}
	addrs, err := decodeAddrs(payload, eng.P())
	if err != nil {
		return err
	}
	if err := tr.ConnectMesh(addrs); err != nil {
		return err
	}

	active, err := host.Reset(prog, tr)
	if err != nil {
		return err
	}
	ready := make([]byte, 0, 12)
	ready = binary.BigEndian.AppendUint32(ready, uint32(host.Replicas()))
	ready = binary.BigEndian.AppendUint32(ready, uint32(host.Masters()))
	ready = binary.BigEndian.AppendUint32(ready, uint32(active))
	if err := link.writeFrame(frameReady, ready); err != nil {
		return fmt.Errorf("ready: %w", err)
	}

	step := -1
	var ssp obs.Span
	done := make([]byte, 0, 4+totalsSize)
	for {
		_ = conn.SetReadDeadline(wallDeadline(clusterIOTimeout))
		kind, payload, err := link.rd.ReadFrame()
		if err != nil {
			return fmt.Errorf("control read: %w", err)
		}
		switch kind {
		case framePhase:
			if len(payload) != 0 {
				return fmt.Errorf("phase payload %d bytes, want 0", len(payload))
			}
			ssp.End()
			step++
			ssp = wsp.Child("wire.worker.superstep", obs.Int("step", step))
			for ph := 0; ph < engine.NumPhases; ph++ {
				psp := ssp.Child(engine.PhaseName(ph), obs.Int("step", step), obs.Int("phase", ph))
				if err := host.Step(ph); err != nil {
					return err
				}
				tr.Flip()
				psp.End()
			}
			ssp.EndWith(obs.Int("active_masters", host.ActiveMasters()))
			done = binary.BigEndian.AppendUint32(done[:0], uint32(host.ActiveMasters()))
			done = appendTotals(done, tr.Totals())
			if err := link.writeFrame(framePhaseDone, done); err != nil {
				return fmt.Errorf("phase-done: %w", err)
			}
		case frameFinish:
			ssp.End()
			wsp.End()
			if err := link.writeFrame(frameResult, workerResult(host, tr)); err != nil {
				return err
			}
			// Drain-time telemetry upload: only after the result frame, so
			// the coordinator has every output byte before any telemetry.
			if collect {
				snap := obs.CaptureSnapshot(fmt.Sprintf("worker%d", id), id+1)
				payload, err := snap.Encode()
				if err != nil {
					return fmt.Errorf("telemetry upload: %w", err)
				}
				if err := link.writeFrame(frameTelemetry, payload); err != nil {
					return fmt.Errorf("telemetry upload: %w", err)
				}
			}
			return nil
		default:
			return fmt.Errorf("unexpected control frame %#02x", kind)
		}
	}
}

// readSpec consumes the spec stream (header, edge chunks, part chunks) and
// rebuilds the graph, assignment and program. A malformed or truncated
// stream fails with an error, not a panic: the header's counts are checked
// before anything is sized from them, and the edge buffer grows one
// received chunk at a time, so a header cannot claim edges it never sends.
func readSpec(link *workerLink) (*graph.Graph, *partition.Assignment, engine.Program, error) {
	payload, err := link.expect(frameSpec)
	if err != nil {
		return nil, nil, nil, err
	}
	if len(payload) != 4+4+programSpecSize+4+4 {
		return nil, nil, nil, fmt.Errorf("spec payload %d bytes, want %d", len(payload), 4+4+programSpecSize+4+4)
	}
	p := binary.BigEndian.Uint32(payload[0:4])
	n := binary.BigEndian.Uint32(payload[8+programSpecSize : 12+programSpecSize])
	m := binary.BigEndian.Uint32(payload[12+programSpecSize : 16+programSpecSize])
	if p < 1 || p > maxMachines {
		return nil, nil, nil, fmt.Errorf("spec header: %d machines, want 1..%d", p, maxMachines)
	}
	if n > math.MaxInt32 || m > math.MaxInt32 {
		return nil, nil, nil, fmt.Errorf("spec header: %d vertices and %d edges, want at most %d each", n, m, math.MaxInt32)
	}
	prog, err := decodeProgram(payload[8 : 8+programSpecSize])
	if err != nil {
		return nil, nil, nil, err
	}

	var edges []graph.Edge
	if err := readChunks(link, frameEdges, int(m), 8, func(_ int, items []byte) error {
		edges = slices.Grow(edges, len(items)/8)
		for b := items; len(b) > 0; b = b[8:] {
			edges = append(edges, graph.Edge{
				U: graph.Vertex(binary.BigEndian.Uint32(b[0:4])),
				V: graph.Vertex(binary.BigEndian.Uint32(b[4:8])),
			})
		}
		return nil
	}); err != nil {
		return nil, nil, nil, err
	}
	g, err := graph.FromEdges(int(n), edges)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("spec edges: %w", err)
	}
	// Every edge has arrived, so m is backed by received bytes.
	a, err := partition.New(int(m), int(p))
	if err != nil {
		return nil, nil, nil, err
	}
	if err := readChunks(link, frameParts, int(m), 4, func(start int, items []byte) error {
		for i := 0; i < len(items); i += 4 {
			k := binary.BigEndian.Uint32(items[i : i+4])
			if k >= p {
				return fmt.Errorf("spec parts: edge %d in part %d, want < %d", start+i/4, k, p)
			}
			a.Assign(graph.EdgeID(start+i/4), int(k))
		}
		return nil
	}); err != nil {
		return nil, nil, nil, err
	}
	return g, a, prog, nil
}

// readChunks consumes the chunk frames covering m items of itemSize bytes,
// invoking fn with each chunk's first item index and its item bytes, and
// stops at the first error fn returns.
func readChunks(link *workerLink, kind byte, m, itemSize int, fn func(start int, items []byte) error) error {
	for start := 0; start < m; start += specChunk {
		end := min(start+specChunk, m)
		payload, err := link.expect(kind)
		if err != nil {
			return err
		}
		if len(payload) != 4+itemSize*(end-start) {
			return fmt.Errorf("chunk %#02x payload %d bytes, want %d", kind, len(payload), 4+itemSize*(end-start))
		}
		if got := int(binary.BigEndian.Uint32(payload[0:4])); got != start {
			return fmt.Errorf("chunk %#02x starts at %d, want %d", kind, got, start)
		}
		if err := fn(start, payload[4:]); err != nil {
			return err
		}
	}
	return nil
}

// decodeAddrs parses the coordinator's address-table broadcast.
func decodeAddrs(payload []byte, p int) ([]string, error) {
	if len(payload) < 4 {
		return nil, fmt.Errorf("addrs payload %d bytes, want at least 4", len(payload))
	}
	if got := int(binary.BigEndian.Uint32(payload[0:4])); got != p {
		return nil, fmt.Errorf("addrs table has %d entries, want %d", got, p)
	}
	addrs := make([]string, p)
	off := 4
	for i := 0; i < p; i++ {
		if off+4 > len(payload) {
			return nil, fmt.Errorf("addrs table truncated at entry %d", i)
		}
		l := int(binary.BigEndian.Uint32(payload[off : off+4]))
		off += 4
		if off+l > len(payload) {
			return nil, fmt.Errorf("addrs table truncated inside entry %d", i)
		}
		addrs[i] = string(payload[off : off+l])
		off += l
	}
	if off != len(payload) {
		return nil, fmt.Errorf("addrs table has %d trailing bytes", len(payload)-off)
	}
	return addrs, nil
}

// workerResult encodes this worker's master values and sender-side traffic
// row for the result frame.
func workerResult(host *engine.MachineHost, tr *TCPTransport) []byte {
	mv := host.MasterValues()
	traffic := tr.Traffic()
	id := tr.LocalMachines()[0]
	buf := make([]byte, 0, 4+12*len(mv)+16*tr.p)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(mv)))
	for _, v := range mv {
		buf = binary.BigEndian.AppendUint32(buf, uint32(v.Vertex))
		buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(v.Value))
	}
	for _, m := range traffic.Messages[id] {
		buf = binary.BigEndian.AppendUint64(buf, uint64(m))
	}
	for _, b := range traffic.Bytes[id] {
		buf = binary.BigEndian.AppendUint64(buf, uint64(b))
	}
	return buf
}
