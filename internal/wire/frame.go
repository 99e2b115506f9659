// Package wire is the network layer of the share-nothing engine: a
// deterministic binary codec for every engine.Message kind, length-prefixed
// framing over io streams, a TCP mesh Transport whose delivery contract is
// bit-compatible with engine.MemTransport, and a process-per-machine
// cluster runner. See DESIGN.md §14 for the wire format and the argument
// that determinism survives the network.
package wire

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// Frame layout: [4-byte big-endian length][1-byte kind][payload], where
// length counts the kind byte plus the payload (so length >= 1 and the
// frame occupies length+4 bytes on the wire).
const (
	// FrameHeaderSize is the bytes of overhead per frame: the 4-byte
	// length prefix and the 1-byte kind.
	FrameHeaderSize = 5
	// MaxFrameSize bounds the length field a reader accepts. The largest
	// legitimate frames are a GatherFlush for a maximum-degree vertex
	// (12 bytes per neighbour; 16 MiB covers ~1.4M neighbours, far above
	// any dataset here) and a worker's telemetry upload (a full trace ring
	// of the widest records is ~8 MiB; TestFullTraceRingFitsOneFrame), while
	// the bound keeps a corrupt length prefix from provoking a giant
	// allocation.
	MaxFrameSize = 16 << 20
)

// Frame kind bytes. Data kinds 0x01..0x03 map 1:1 onto engine message
// kinds; 0x10.. are transport/cluster control frames that never enter an
// inbox or the traffic accounting.
const (
	frameGather   byte = 0x01
	frameApply    byte = 0x02
	frameActivate byte = 0x03

	// frameBarrier ends a sender's phase on one link: payload is the
	// 4-byte Flip sequence number.
	frameBarrier byte = 0x10
	// frameHello opens a mesh data connection: payload is the 4-byte
	// sender machine id.
	frameHello byte = 0x11

	// Cluster control frames (coordinator <-> worker), see cluster.go. An
	// empty framePhase asks a worker to run one whole superstep (every
	// phase, each closed by a mesh Flip); framePhaseDone is its reply.
	frameSpec      byte = 0x20
	frameAddr      byte = 0x21
	frameAddrs     byte = 0x22
	frameReady     byte = 0x23
	framePhase     byte = 0x24
	framePhaseDone byte = 0x25
	frameFinish    byte = 0x26
	frameResult    byte = 0x27
	// frameEdges/frameParts chunk the graph and assignment inside the spec
	// stream, keeping every frame well under MaxFrameSize for any dataset.
	frameEdges byte = 0x28
	frameParts byte = 0x29
	// frameTrace is the versioned trace-context frame the coordinator sends
	// each worker right after its hello: protocol version, trace id, and
	// whether the worker should ship telemetry back at drain.
	frameTrace byte = 0x2A
	// frameTelemetry carries a worker's obs.ProcessSnapshot, encoded as
	// JSON, back to the coordinator after its result frame (only when trace
	// context requested collection). Pure control plane: never counted as
	// traffic.
	frameTelemetry byte = 0x2B
)

// FrameError is a framing or decoding failure, located by the byte offset
// of the offending frame in the stream.
type FrameError struct {
	// Offset is the stream offset of the first byte of the bad frame.
	Offset int64
	// Reason describes the failure.
	Reason string
}

// Error implements error.
func (e *FrameError) Error() string {
	return fmt.Sprintf("wire: %s (frame at byte offset %d)", e.Reason, e.Offset)
}

// frameErrorf builds a FrameError at offset off.
func frameErrorf(off int64, format string, args ...any) *FrameError {
	//lint:ignore GL010 error path: a malformed frame ends its stream, so this formats at most once per link
	return &FrameError{Offset: off, Reason: fmt.Sprintf(format, args...)}
}

// Reader reads frames from a byte stream, tracking the stream offset so
// every error pinpoints the corrupt frame.
type Reader struct {
	br  *bufio.Reader
	off int64
	hdr [4]byte // a field, not a local: io.ReadFull would move a local to the heap per frame
	buf []byte
}

// readerBufSize is the Reader's buffer: 64 KiB keeps the read syscalls of a
// bulk data link to a few per megabyte (bufio's 4 KiB default costs ~16x as
// many).
const readerBufSize = 64 << 10

// NewReader returns a frame reader over r.
func NewReader(r io.Reader) *Reader {
	return &Reader{br: bufio.NewReaderSize(r, readerBufSize)}
}

// Offset returns the stream offset of the next unread byte.
func (r *Reader) Offset() int64 { return r.off }

// ReadFrame reads one frame and returns its kind and payload. The payload
// slice is valid only until the next ReadFrame call (it aliases an internal
// buffer). io.EOF is returned unwrapped when the stream ends cleanly on a
// frame boundary; every other failure is a *FrameError or the underlying
// I/O error.
func (r *Reader) ReadFrame() (kind byte, payload []byte, err error) {
	start := r.off
	hdr := r.hdr[:]
	if _, err := io.ReadFull(r.br, hdr); err != nil {
		if err == io.EOF {
			return 0, nil, io.EOF
		}
		return 0, nil, frameErrorf(start, "truncated length prefix: %v", err)
	}
	length := binary.BigEndian.Uint32(hdr)
	if length < 1 {
		return 0, nil, frameErrorf(start, "frame length %d is below the 1-byte minimum (kind byte)", length)
	}
	if length > MaxFrameSize {
		return 0, nil, frameErrorf(start, "frame length %d exceeds the %d-byte maximum", length, MaxFrameSize)
	}
	if cap(r.buf) < int(length) {
		r.buf = make([]byte, length)
	}
	body := r.buf[:length]
	if _, err := io.ReadFull(r.br, body); err != nil {
		return 0, nil, frameErrorf(start, "truncated frame: want %d body bytes: %v", length, err)
	}
	r.off += int64(4 + length)
	return body[0], body[1:], nil
}

// appendFrameHeader appends the 4-byte length prefix and kind byte for a
// payload of payloadLen bytes.
func appendFrameHeader(buf []byte, kind byte, payloadLen int) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(1+payloadLen))
	return append(buf, kind)
}

// writeFrame writes one complete frame to w.
func writeFrame(w io.Writer, kind byte, payload []byte) error {
	hdr := appendFrameHeader(make([]byte, 0, FrameHeaderSize), kind, len(payload))
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	if len(payload) == 0 {
		return nil
	}
	_, err := w.Write(payload)
	return err
}
