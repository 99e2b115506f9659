package wire

import (
	"encoding/binary"
	"fmt"
	"math"

	"github.com/graphpart/graphpart/internal/engine"
	"github.com/graphpart/graphpart/internal/graph"
)

// progKind bytes name the three programs that cross a process boundary in
// the spec header's program encoding.
const (
	progPageRank   byte = 1
	progComponents byte = 2
	progSSSP       byte = 3
)

const programSpecSize = 1 + 8 + 8 + 4 + 4

// appendProgram appends the fixed-size program encoding a cluster
// coordinator ships to its workers:
// u8 kind | f64 damping | f64 tolerance | u32 n | u32 source, with the
// fields a program does not have left zero. Only PageRank, Components and
// SSSP can be encoded.
func appendProgram(buf []byte, prog engine.Program) ([]byte, error) {
	var (
		kind               byte
		damping, tolerance float64
		n, source          uint32
	)
	switch p := prog.(type) {
	case *engine.PageRank:
		kind, damping, tolerance, n = progPageRank, p.Damping, p.Tolerance, uint32(p.N)
	case *engine.Components:
		kind = progComponents
	case *engine.SSSP:
		kind, source = progSSSP, uint32(p.Source)
	default:
		return nil, fmt.Errorf("wire: program %q has no wire encoding; only pagerank/components/sssp cross process boundaries", prog.Name())
	}
	buf = append(buf, kind)
	buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(damping))
	buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(tolerance))
	buf = binary.BigEndian.AppendUint32(buf, n)
	buf = binary.BigEndian.AppendUint32(buf, source)
	return buf, nil
}

// decodeProgram rebuilds the program an appendProgram encoding describes.
func decodeProgram(b []byte) (engine.Program, error) {
	if len(b) != programSpecSize {
		return nil, fmt.Errorf("wire: program encoding is %d bytes, want %d", len(b), programSpecSize)
	}
	switch b[0] {
	case progPageRank:
		return &engine.PageRank{
			Damping:   math.Float64frombits(binary.BigEndian.Uint64(b[1:9])),
			Tolerance: math.Float64frombits(binary.BigEndian.Uint64(b[9:17])),
			N:         int(int32(binary.BigEndian.Uint32(b[17:21]))),
		}, nil
	case progComponents:
		return &engine.Components{}, nil
	case progSSSP:
		return &engine.SSSP{Source: graph.Vertex(binary.BigEndian.Uint32(b[21:25]))}, nil
	default:
		return nil, fmt.Errorf("wire: unknown program kind byte %#02x", b[0])
	}
}

// appendTotals appends the six engine.Totals counters.
func appendTotals(buf []byte, t engine.Totals) []byte {
	for _, v := range [...]int64{t.GatherMessages, t.ApplyMessages, t.ActivateMessages,
		t.GatherBytes, t.ApplyBytes, t.ActivateBytes} {
		buf = binary.BigEndian.AppendUint64(buf, uint64(v))
	}
	return buf
}

const totalsSize = 6 * 8

// decodeTotals decodes an appendTotals encoding.
func decodeTotals(b []byte) (engine.Totals, error) {
	if len(b) != totalsSize {
		return engine.Totals{}, fmt.Errorf("wire: totals are %d bytes, want %d", len(b), totalsSize)
	}
	u := func(i int) int64 { return int64(binary.BigEndian.Uint64(b[8*i : 8*i+8])) }
	return engine.Totals{
		GatherMessages: u(0), ApplyMessages: u(1), ActivateMessages: u(2),
		GatherBytes: u(3), ApplyBytes: u(4), ActivateBytes: u(5),
	}, nil
}
