package wire

import (
	"encoding/binary"
	"math"

	"github.com/graphpart/graphpart/internal/engine"
	"github.com/graphpart/graphpart/internal/invariants"
)

// Message payload encodings (all integers big-endian, floats as IEEE 754
// bit patterns). Payload sizes equal engine.Message.WireSize() exactly —
// the in-memory transport's byte accounting is the payload; the framed
// size adds the constant FrameHeaderSize per message.
//
//	GatherFlush    u32 masterLocal | u32 count | count x (u32 slot, u64 valueBits)
//	ApplyBroadcast u32 mirrorLocal | u64 valueBits | u8 flags (bit0 changed, bit1 active)
//	Activate       u32 local
//
// The encoding is canonical: for every byte slice that decodes, re-encoding
// the decoded message reproduces the input bit for bit (FuzzWireRoundTrip
// asserts this). That is what makes framed wire bytes a deterministic
// function of a run.

// applyFlagChanged and applyFlagActive are the ApplyBroadcast flag bits;
// the remaining bits must be zero (canonical encoding).
const (
	applyFlagChanged = 1 << 0
	applyFlagActive  = 1 << 1
)

// FramedSize returns the exact bytes m occupies on a wire link: the payload
// (m.WireSize()) plus the frame header.
func FramedSize(m engine.Message) int { return FrameHeaderSize + m.WireSize() }

// AppendMessage appends m as one complete frame to buf and returns the
// extended slice.
//
//graphpart:hotpath test=TestHotPathAllocs_AppendMessage
func AppendMessage(buf []byte, m engine.Message) []byte {
	switch m := m.(type) {
	case *engine.GatherFlush:
		buf = appendFrameHeader(buf, frameGather, m.WireSize())
		buf = binary.BigEndian.AppendUint32(buf, uint32(m.MasterLocal))
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(m.Contribs)))
		for i, c := range m.Contribs {
			buf = binary.BigEndian.AppendUint32(buf, uint32(m.Slots[i]))
			buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(c))
		}
		return buf
	case *engine.ApplyBroadcast:
		buf = appendFrameHeader(buf, frameApply, m.WireSize())
		buf = binary.BigEndian.AppendUint32(buf, uint32(m.MirrorLocal))
		buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(m.Value))
		var flags byte
		if m.Changed {
			flags |= applyFlagChanged
		}
		if m.Active {
			flags |= applyFlagActive
		}
		return append(buf, flags)
	case *engine.Activate:
		buf = appendFrameHeader(buf, frameActivate, m.WireSize())
		return binary.BigEndian.AppendUint32(buf, uint32(m.Local))
	default:
		// The three kinds above are the complete engine message set; a new
		// kind must extend the codec before it can cross a wire transport.
		panic("wire: unknown message type")
	}
}

// DecodeMessage decodes the payload of a data frame of the given kind. The
// returned message owns its memory (nothing aliases payload): it is decoded
// into a fresh slab. off is the stream offset of the frame, used to locate
// errors.
func DecodeMessage(kind byte, payload []byte, off int64) (engine.Message, error) {
	var s slab
	return s.decode(kind, payload, off)
}

// slab is the decode arena of one barrier-delimited batch on one incoming
// link: the message structs and the backing arrays of every GatherFlush's
// Slots and Contribs. The TCP reader keeps two per link and alternates them
// by batch-sequence parity, so steady-state batches decode without
// allocating (DESIGN.md §14 gives the lifetime argument). A slab only grows:
// when an array is outgrown mid-batch, messages already decoded keep
// pointing into the old array, which stays valid for them.
type slab struct {
	msgs      []engine.Message
	gathers   []engine.GatherFlush
	applies   []engine.ApplyBroadcast
	activates []engine.Activate
	slots     []int32
	contribs  []float64
}

// reset empties s for the next batch, keeping its capacity. Sanitizer builds
// first poison every message of the previous batch — local ids -1,
// contributions and values NaN — so a consumer that outlived its phase
// indexes out of range or propagates NaN instead of reading the next batch.
func (s *slab) reset() {
	if invariants.Enabled {
		for _, m := range s.msgs {
			switch m := m.(type) {
			case *engine.GatherFlush:
				m.MasterLocal = -1
				for i := range m.Slots {
					m.Slots[i] = -1
					m.Contribs[i] = math.NaN()
				}
			case *engine.ApplyBroadcast:
				m.MirrorLocal = -1
				m.Value = math.NaN()
			case *engine.Activate:
				m.Local = -1
			}
		}
	}
	s.msgs = s.msgs[:0]
	s.gathers = s.gathers[:0]
	s.applies = s.applies[:0]
	s.activates = s.activates[:0]
	s.slots = s.slots[:0]
	s.contribs = s.contribs[:0]
}

// decode decodes the payload of a data frame of the given kind into s,
// appends the message to s.msgs and returns it. The message aliases s's
// arrays, never payload. off is the stream offset of the frame, used to
// locate errors.
//
//graphpart:hotpath test=TestHotPathAllocs_TCPSuperstep
func (s *slab) decode(kind byte, payload []byte, off int64) (engine.Message, error) {
	var m engine.Message
	switch kind {
	case frameGather:
		if len(payload) < 8 {
			return nil, frameErrorf(off, "gather payload %d bytes, want at least 8", len(payload))
		}
		count := binary.BigEndian.Uint32(payload[4:8])
		want := 8 + 12*int64(count)
		if int64(len(payload)) != want {
			return nil, frameErrorf(off, "gather payload %d bytes does not match count %d (want %d)",
				len(payload), count, want)
		}
		lo := len(s.slots)
		hi := lo + int(count)
		s.slots = grow(s.slots, hi)
		s.contribs = grow(s.contribs, hi)
		slots, contribs := s.slots[lo:hi:hi], s.contribs[lo:hi:hi]
		for i := range slots {
			p := payload[8+12*i:]
			slots[i] = int32(binary.BigEndian.Uint32(p[0:4]))
			contribs[i] = math.Float64frombits(binary.BigEndian.Uint64(p[4:12]))
		}
		s.gathers = append(s.gathers, engine.GatherFlush{
			MasterLocal: int32(binary.BigEndian.Uint32(payload[0:4])),
			Slots:       slots,
			Contribs:    contribs,
		})
		m = &s.gathers[len(s.gathers)-1]
	case frameApply:
		if len(payload) != 13 {
			return nil, frameErrorf(off, "apply payload %d bytes, want 13", len(payload))
		}
		flags := payload[12]
		if flags&^(applyFlagChanged|applyFlagActive) != 0 {
			return nil, frameErrorf(off, "apply flags byte %#02x has undefined bits set", flags)
		}
		s.applies = append(s.applies, engine.ApplyBroadcast{
			MirrorLocal: int32(binary.BigEndian.Uint32(payload[0:4])),
			Value:       math.Float64frombits(binary.BigEndian.Uint64(payload[4:12])),
			Changed:     flags&applyFlagChanged != 0,
			Active:      flags&applyFlagActive != 0,
		})
		m = &s.applies[len(s.applies)-1]
	case frameActivate:
		if len(payload) != 4 {
			return nil, frameErrorf(off, "activate payload %d bytes, want 4", len(payload))
		}
		s.activates = append(s.activates, engine.Activate{Local: int32(binary.BigEndian.Uint32(payload))})
		m = &s.activates[len(s.activates)-1]
	default:
		return nil, frameErrorf(off, "unknown data frame kind %#02x", kind)
	}
	s.msgs = append(s.msgs, m)
	return m, nil
}

// grow returns buf extended to length n, reallocating (with append's
// amortised growth) only when n exceeds its capacity.
func grow[T any](buf []T, n int) []T {
	if n <= cap(buf) {
		return buf[:n]
	}
	return append(buf[:cap(buf)], make([]T, n-cap(buf))...)
}
