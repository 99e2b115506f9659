package wire

import (
	"bytes"
	"errors"
	"io"
	"math"
	"net"
	"reflect"
	"strings"
	"testing"

	"github.com/graphpart/graphpart/internal/engine"
	"github.com/graphpart/graphpart/internal/graph"
	"github.com/graphpart/graphpart/internal/partition"
)

// goldenFrames pins the wire encoding byte for byte: a codec change that
// alters any of these is a protocol break and must be deliberate.
var goldenFrames = []struct {
	name string
	msg  engine.Message
	want []byte
}{
	{
		name: "activate",
		msg:  &engine.Activate{Local: 7},
		want: []byte{
			0x00, 0x00, 0x00, 0x05, // length = kind + 4
			0x03,                   // frameActivate
			0x00, 0x00, 0x00, 0x07, // local
		},
	},
	{
		name: "apply",
		msg:  &engine.ApplyBroadcast{MirrorLocal: 1, Value: 0.5, Changed: true},
		want: []byte{
			0x00, 0x00, 0x00, 0x0e, // length = kind + 13
			0x02,                   // frameApply
			0x00, 0x00, 0x00, 0x01, // mirror local
			0x3f, 0xe0, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // 0.5
			0x01, // flags: changed
		},
	},
	{
		name: "gather",
		msg:  &engine.GatherFlush{MasterLocal: 2, Slots: []int32{3}, Contribs: []float64{1.0}},
		want: []byte{
			0x00, 0x00, 0x00, 0x15, // length = kind + 8 + 12
			0x01,                   // frameGather
			0x00, 0x00, 0x00, 0x02, // master local
			0x00, 0x00, 0x00, 0x01, // count
			0x00, 0x00, 0x00, 0x03, // slot 0
			0x3f, 0xf0, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // 1.0
		},
	},
}

func TestGoldenFrames(t *testing.T) {
	for _, tc := range goldenFrames {
		t.Run(tc.name, func(t *testing.T) {
			got := AppendMessage(nil, tc.msg)
			if !bytes.Equal(got, tc.want) {
				t.Fatalf("encoding drifted:\n got %#v\nwant %#v", got, tc.want)
			}
			if len(got) != FramedSize(tc.msg) {
				t.Fatalf("frame is %d bytes, FramedSize says %d", len(got), FramedSize(tc.msg))
			}
			if len(got) != FrameHeaderSize+tc.msg.WireSize() {
				t.Fatalf("frame is %d bytes, want WireSize %d + header %d",
					len(got), tc.msg.WireSize(), FrameHeaderSize)
			}
		})
	}
}

// TestRoundTrip drives representative messages of every kind through the
// framed encode/decode path and requires field-identical results.
func TestRoundTrip(t *testing.T) {
	msgs := []engine.Message{
		&engine.Activate{Local: 0},
		&engine.Activate{Local: 1<<31 - 1},
		&engine.ApplyBroadcast{MirrorLocal: 0, Value: math.Inf(1), Changed: false, Active: true},
		&engine.ApplyBroadcast{MirrorLocal: 9, Value: -0.0, Changed: true, Active: true},
		&engine.GatherFlush{MasterLocal: 5, Slots: []int32{}, Contribs: []float64{}},
		&engine.GatherFlush{
			MasterLocal: 1,
			Slots:       []int32{0, 2, 4, 6},
			Contribs:    []float64{1e-300, -1e300, math.Pi, 0},
		},
	}
	var stream []byte
	for _, m := range msgs {
		stream = AppendMessage(stream, m)
	}
	rd := NewReader(bytes.NewReader(stream))
	for i, want := range msgs {
		start := rd.Offset()
		kind, payload, err := rd.ReadFrame()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		got, err := DecodeMessage(kind, payload, start)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got.MessageKind() != want.MessageKind() {
			t.Fatalf("frame %d: kind %v, want %v", i, got.MessageKind(), want.MessageKind())
		}
		// Re-encoding the decoded message must reproduce the original frame.
		a, b := AppendMessage(nil, want), AppendMessage(nil, got)
		if !bytes.Equal(a, b) {
			t.Fatalf("frame %d: decode/re-encode drifted\n got %x\nwant %x", i, b, a)
		}
	}
	if _, _, err := rd.ReadFrame(); err != io.EOF {
		t.Fatalf("stream end: err = %v, want io.EOF", err)
	}
}

// frameError asserts err is a *FrameError at the wanted offset mentioning
// substr.
func frameError(t *testing.T, err error, wantOff int64, substr string) {
	t.Helper()
	var fe *FrameError
	if !errors.As(err, &fe) {
		t.Fatalf("err = %v (%T), want *FrameError", err, err)
	}
	if fe.Offset != wantOff {
		t.Fatalf("error offset = %d, want %d (err: %v)", fe.Offset, wantOff, fe)
	}
	if !strings.Contains(fe.Reason, substr) {
		t.Fatalf("error %q does not mention %q", fe.Reason, substr)
	}
}

func TestReaderFailurePaths(t *testing.T) {
	valid := AppendMessage(nil, &engine.Activate{Local: 1})

	t.Run("TruncatedLengthPrefix", func(t *testing.T) {
		rd := NewReader(bytes.NewReader(append(append([]byte{}, valid...), 0x00, 0x00)))
		if _, _, err := rd.ReadFrame(); err != nil {
			t.Fatalf("valid frame: %v", err)
		}
		_, _, err := rd.ReadFrame()
		frameError(t, err, int64(len(valid)), "truncated length prefix")
	})

	t.Run("TruncatedBody", func(t *testing.T) {
		rd := NewReader(bytes.NewReader(valid[:len(valid)-2]))
		_, _, err := rd.ReadFrame()
		frameError(t, err, 0, "truncated frame")
	})

	t.Run("ZeroLength", func(t *testing.T) {
		rd := NewReader(bytes.NewReader([]byte{0, 0, 0, 0}))
		_, _, err := rd.ReadFrame()
		frameError(t, err, 0, "below the 1-byte minimum")
	})

	t.Run("OversizedLength", func(t *testing.T) {
		// Length prefix claims 1 GiB; the reader must reject it before
		// attempting the allocation.
		stream := append(append([]byte{}, valid...), 0x40, 0x00, 0x00, 0x00, frameActivate)
		rd := NewReader(bytes.NewReader(stream))
		if _, _, err := rd.ReadFrame(); err != nil {
			t.Fatalf("valid frame: %v", err)
		}
		_, _, err := rd.ReadFrame()
		frameError(t, err, int64(len(valid)), "exceeds")
	})

	t.Run("CleanEOF", func(t *testing.T) {
		rd := NewReader(bytes.NewReader(valid))
		if _, _, err := rd.ReadFrame(); err != nil {
			t.Fatalf("valid frame: %v", err)
		}
		if _, _, err := rd.ReadFrame(); err != io.EOF {
			t.Fatalf("err = %v, want bare io.EOF at a frame boundary", err)
		}
	})
}

func TestDecodeFailurePaths(t *testing.T) {
	const off = 1234
	cases := []struct {
		name    string
		kind    byte
		payload []byte
		substr  string
	}{
		{"UnknownKind", 0x7f, []byte{0, 0, 0, 0}, "unknown data frame kind"},
		{"GatherTooShort", frameGather, []byte{0, 0, 0}, "at least 8"},
		{"GatherCountMismatch", frameGather,
			[]byte{0, 0, 0, 1, 0, 0, 0, 2, 0, 0, 0, 0}, "does not match count"},
		{"ApplyWrongSize", frameApply, make([]byte, 12), "want 13"},
		{"ApplyUndefinedFlags", frameApply,
			append(make([]byte, 12), 0x04), "undefined bits"},
		{"ActivateWrongSize", frameActivate, make([]byte, 5), "want 4"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := DecodeMessage(tc.kind, tc.payload, off)
			frameError(t, err, off, tc.substr)
		})
	}
}

// TestDecodeOffsetsPointAtBadFrame streams two good frames and one corrupt
// one and checks the reported offset lands exactly on the corrupt frame.
func TestDecodeOffsetsPointAtBadFrame(t *testing.T) {
	var stream []byte
	stream = AppendMessage(stream, &engine.Activate{Local: 1})
	stream = AppendMessage(stream, &engine.ApplyBroadcast{MirrorLocal: 2, Value: 1})
	badAt := int64(len(stream))
	// An apply frame with a truncated payload (12 bytes instead of 13).
	stream = appendFrameHeader(stream, frameApply, 12)
	stream = append(stream, make([]byte, 12)...)

	rd := NewReader(bytes.NewReader(stream))
	for i := 0; i < 2; i++ {
		start := rd.Offset()
		kind, payload, err := rd.ReadFrame()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if _, err := DecodeMessage(kind, payload, start); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
	}
	start := rd.Offset()
	kind, payload, err := rd.ReadFrame()
	if err != nil {
		t.Fatalf("reading corrupt frame's bytes: %v", err)
	}
	_, err = DecodeMessage(kind, payload, start)
	frameError(t, err, badAt, "want 13")
}

func TestAppendMessageUnknownTypePanics(t *testing.T) {
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("AppendMessage accepted an unknown message type")
		}
	}()
	AppendMessage(nil, unknownMessage{})
}

type unknownMessage struct{}

func (unknownMessage) MessageKind() engine.Kind { return engine.Kind(99) }
func (unknownMessage) WireSize() int            { return 0 }

func TestProgramSpecRoundTrip(t *testing.T) {
	progs := []engine.Program{
		&engine.PageRank{Damping: 0.85, Tolerance: 1e-8, N: 600},
		&engine.Components{},
		&engine.SSSP{Source: 17},
	}
	for _, want := range progs {
		buf, err := appendProgram(nil, want)
		if err != nil {
			t.Fatalf("%s: %v", want.Name(), err)
		}
		if len(buf) != programSpecSize {
			t.Fatalf("%s: encoding is %d bytes, want %d", want.Name(), len(buf), programSpecSize)
		}
		got, err := decodeProgram(buf)
		if err != nil {
			t.Fatalf("%s: %v", want.Name(), err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("program round trip: got %#v, want %#v", got, want)
		}
	}
	if _, err := decodeProgram(make([]byte, programSpecSize-1)); err == nil {
		t.Fatal("short program encoding accepted")
	}
	bad := make([]byte, programSpecSize)
	bad[0] = 0x7f
	if _, err := decodeProgram(bad); err == nil {
		t.Fatal("unknown program kind byte accepted")
	}
}

func TestTotalsRoundTrip(t *testing.T) {
	want := engine.Totals{
		GatherMessages: 1, ApplyMessages: 2, ActivateMessages: 3,
		GatherBytes: 400, ApplyBytes: 500, ActivateBytes: 600,
	}
	got, err := decodeTotals(appendTotals(nil, want))
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("totals round trip: got %+v, want %+v", got, want)
	}
	if _, err := decodeTotals(make([]byte, totalsSize+1)); err == nil {
		t.Fatal("oversized totals accepted")
	}
}

// TestReadSpecRejectsDuplicateEdges hands a worker a spec stream whose edge
// list repeats an edge and expects readSpec to refuse it as a duplicate,
// rather than rebuild a smaller graph that mismatches the assignment.
func TestReadSpecRejectsDuplicateEdges(t *testing.T) {
	g := graph.MustFromEdges(3, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}})
	a, err := partition.New(g.NumEdges(), 1)
	if err != nil {
		t.Fatal(err)
	}
	a.Assign(0, 0)
	a.Assign(1, 0)
	frames, err := specFrames(&engine.Components{}, g, a, 10)
	if err != nil {
		t.Fatal(err)
	}
	edge12 := []byte{0, 0, 0, 1, 0, 0, 0, 2}
	if bytes.Count(frames, edge12) != 1 {
		t.Fatal("edge (1, 2) not found exactly once in the spec stream")
	}
	frames = bytes.Replace(frames, edge12, []byte{0, 0, 0, 1, 0, 0, 0, 0}, 1)

	coord, worker := net.Pipe()
	go func() { _, _ = coord.Write(frames) }()
	defer coord.Close()
	defer worker.Close()
	_, _, _, err = readSpec(&workerLink{conn: worker, rd: NewReader(worker)})
	if err == nil || !strings.Contains(err.Error(), "duplicate edge (0, 1)") {
		t.Fatalf("readSpec error %v, want a duplicate-edge error", err)
	}
}
