package wire

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"net"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/graphpart/graphpart/internal/engine"
	"github.com/graphpart/graphpart/internal/graph"
	"github.com/graphpart/graphpart/internal/obs"
	"github.com/graphpart/graphpart/internal/partition"
)

// TestWorkerRejectsOtherProtocolVersion plays a coordinator that speaks the
// next cluster protocol version: the worker must refuse the trace-context
// frame by name instead of guessing at the frame layouts that follow.
func TestWorkerRejectsOtherProtocolVersion(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	werr := make(chan error, 1)
	go func() { werr <- runWorker("0@" + ln.Addr().String()) }()

	conn, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(wallDeadline(setupTimeout))
	kind, payload, err := NewReader(conn).ReadFrame()
	if err != nil || kind != frameHello || len(payload) != 4 {
		t.Fatalf("worker hello: kind %#02x, %d bytes, err %v", kind, len(payload), err)
	}
	other := clusterProtocolVersion + 1
	tctx := binary.BigEndian.AppendUint16(nil, uint16(other))
	tctx = binary.BigEndian.AppendUint64(tctx, 1)
	tctx = append(tctx, 0)
	if err := writeFrame(conn, frameTrace, tctx); err != nil {
		t.Fatal(err)
	}
	err = <-werr
	want := fmt.Sprintf("coordinator speaks cluster protocol v%d, this worker speaks v%d", other, clusterProtocolVersion)
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("runWorker error = %v, want %q", err, want)
	}
}

// deadlineConn stands in for a worker's control connection when readSpec
// decodes a recorded stream: the link's Reader supplies the bytes, and the
// connection only takes read deadlines.
type deadlineConn struct{ net.Conn }

func (deadlineConn) SetReadDeadline(time.Time) error { return nil }

// readSpecBytes runs the worker's spec decoder over a recorded stream.
func readSpecBytes(data []byte) (*graph.Graph, *partition.Assignment, engine.Program, error) {
	return readSpec(&workerLink{conn: deadlineConn{}, rd: NewReader(bytes.NewReader(data))})
}

// specGraph is a small spec input: five edges over vertices 0..3 plus an
// isolated trailing vertex 4, assigned round robin to two machines.
func specGraph() (*graph.Graph, *partition.Assignment) {
	g := graph.MustFromEdges(5, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}, {U: 0, V: 3}, {U: 1, V: 3}})
	a := partition.MustNew(g.NumEdges(), 2)
	for id := 0; id < g.NumEdges(); id++ {
		a.Assign(graph.EdgeID(id), id%2)
	}
	return g, a
}

// validSpec encodes specGraph's spec stream for a PageRank run.
func validSpec(t testing.TB) []byte {
	g, a := specGraph()
	frames, err := specFrames(&engine.PageRank{Damping: 0.85, Tolerance: 1e-9, N: g.NumVertices()}, g, a, 20)
	if err != nil {
		t.Fatal(err)
	}
	return frames
}

// Offsets into a spec stream: the header frame's 5-byte frame header, then
// p, maxSupersteps, the program spec, n and m.
const (
	specOffP   = FrameHeaderSize
	specOffN   = FrameHeaderSize + 8 + programSpecSize
	specOffM   = specOffN + 4
	specHdrEnd = specOffM + 4
)

// TestReadSpecRejectsMalformed: a spec stream with a bad header count, an
// out-of-range endpoint or part id, or a truncated body must make readSpec
// return an error, without a panic and without sizing anything from the
// header alone (m = 2^31-1 or 2^32-1 followed by EOF asks for no memory).
func TestReadSpecRejectsMalformed(t *testing.T) {
	valid := validSpec(t)
	g, a := specGraph()
	gotG, gotA, prog, err := readSpecBytes(valid)
	if err != nil {
		t.Fatalf("valid spec: %v", err)
	}
	if prog.Name() != "pagerank" || gotA.P() != a.P() || !slices.Equal(gotG.Edges(), g.Edges()) {
		t.Fatalf("valid spec decoded to %s, p=%d, edges %v", prog.Name(), gotA.P(), gotG.Edges())
	}
	for id := 0; id < g.NumEdges(); id++ {
		got, _ := gotA.PartitionOf(graph.EdgeID(id))
		want, _ := a.PartitionOf(graph.EdgeID(id))
		if got != want {
			t.Fatalf("edge %d decoded to part %d, want %d", id, got, want)
		}
	}

	patched := func(data []byte, off int, v uint32) []byte {
		out := slices.Clone(data)
		binary.BigEndian.PutUint32(out[off:], v)
		return out
	}
	header := valid[:specHdrEnd]
	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"part id = p", patched(valid, len(valid)-4, 2)},
		{"m = 2^32-1 then EOF", patched(header, specOffM, math.MaxUint32)},
		{"m = 2^31-1 then EOF", patched(header, specOffM, math.MaxInt32)},
		{"p = 0", patched(valid, specOffP, 0)},
		{"p above maxMachines", patched(valid, specOffP, maxMachines+1)},
		{"n = 2^32-1", patched(valid, specOffN, math.MaxUint32)},
		{"endpoint >= n", patched(valid, specOffN, 3)},
		{"truncated", valid[:len(valid)-1]},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, _, _, err := readSpecBytes(tc.data); err == nil {
				t.Fatal("readSpec accepted a malformed spec")
			}
		})
	}
}

// TestFullTraceRingFitsOneFrame bounds the telemetry upload: a worker whose
// trace ring is full, every record carrying as many attributes as a record
// holds and each attribute a 20-digit payload, still ships its snapshot in
// one frame below MaxFrameSize, and the coordinator reads it back whole.
func TestFullTraceRingFitsOneFrame(t *testing.T) {
	rec := obs.Record{Name: "wire.worker.superstep", Kind: 'X', Track: math.MaxInt32,
		Start: math.MaxInt64, Dur: math.MaxInt64}
	for i := range rec.Attrs {
		rec.Attrs[i] = obs.Int64(fmt.Sprintf("active_masters_%d", i), -1) // 2^64-1 as bits
	}
	rec.NAttrs = uint8(len(rec.Attrs))
	ps := obs.ProcessSnapshot{Process: "worker1023", PID: 1024,
		EpochUnixNano: math.MaxInt64, Dropped: math.MaxInt64,
		Records: make([]obs.Record, obs.DefaultTraceCapacity),
		Metrics: obs.Default.Snapshot()}
	for i := range ps.Records {
		ps.Records[i] = rec
	}
	payload, err := ps.Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	t.Logf("full ring of %d records: %d bytes (%.1f MiB)", len(ps.Records), len(payload), float64(len(payload))/(1<<20))
	var buf bytes.Buffer
	if err := writeFrame(&buf, frameTelemetry, payload); err != nil {
		t.Fatalf("writeFrame: %v", err)
	}
	kind, got, err := NewReader(&buf).ReadFrame()
	if err != nil {
		t.Fatalf("full-ring telemetry frame (%d-byte payload) unreadable: %v", len(payload), err)
	}
	if kind != frameTelemetry {
		t.Fatalf("read frame kind %#02x, want %#02x", kind, frameTelemetry)
	}
	back, err := obs.DecodeSnapshot(got)
	if err != nil {
		t.Fatalf("DecodeSnapshot: %v", err)
	}
	if len(back.Records) != obs.DefaultTraceCapacity || back.Records[0] != rec {
		t.Fatalf("decoded %d records, first %+v", len(back.Records), back.Records[0])
	}
}
