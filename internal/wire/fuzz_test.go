package wire

import (
	"bytes"
	"encoding/binary"
	"testing"

	"github.com/graphpart/graphpart/internal/engine"
)

// FuzzWireRoundTrip feeds arbitrary bytes through the frame reader and
// message decoder and asserts the canonical-encoding property: every frame
// that decodes successfully re-encodes to exactly the bytes it came from.
// That property is what makes total wire bytes a deterministic function of a
// run — there is exactly one encoding per message value.
func FuzzWireRoundTrip(f *testing.F) {
	for _, tc := range goldenFrames {
		f.Add(tc.want)
	}
	var multi []byte
	multi = AppendMessage(multi, &engine.GatherFlush{
		MasterLocal: 3,
		Slots:       []int32{1, 4, 1, 5},
		Contribs:    []float64{9, 2, 6, 5.35},
	})
	multi = AppendMessage(multi, &engine.ApplyBroadcast{MirrorLocal: 8, Value: -1, Active: true})
	multi = AppendMessage(multi, &engine.Activate{Local: 979})
	f.Add(multi)
	f.Add([]byte{0, 0, 0, 2, frameApply, 0xff})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})

	f.Fuzz(func(t *testing.T, data []byte) {
		rd := NewReader(bytes.NewReader(data))
		for frames := 0; frames < 64; frames++ {
			start := rd.Offset()
			kind, payload, err := rd.ReadFrame()
			if err != nil {
				return // framing rejected the rest of the stream
			}
			if int64(len(payload))+1 > MaxFrameSize {
				t.Fatalf("reader returned a %d-byte payload beyond MaxFrameSize", len(payload))
			}
			m, err := DecodeMessage(kind, payload, start)
			if err != nil {
				continue // control kinds and malformed payloads are fine to skip
			}
			reencoded := AppendMessage(nil, m)
			original := data[start : start+int64(FrameHeaderSize+len(payload))]
			if !bytes.Equal(reencoded, original) {
				t.Fatalf("encoding is not canonical:\ndecoded  %#v\noriginal %x\nreencode %x",
					m, original, reencoded)
			}
			if FramedSize(m) != len(original) {
				t.Fatalf("FramedSize(%T) = %d, frame was %d bytes", m, FramedSize(m), len(original))
			}
		}
	})
}

// FuzzReadSpec feeds arbitrary spec streams to the worker's decoder. It must
// return an error or a graph and a complete assignment the engine accepts,
// never panic, and never size the edge buffer from a header count the
// stream does not back.
func FuzzReadSpec(f *testing.F) {
	valid := validSpec(f)
	f.Add(valid)
	f.Add(valid[:specHdrEnd])
	f.Add(valid[:len(valid)-1])

	f.Fuzz(func(t *testing.T, data []byte) {
		// The worker builds its graph over global vertex ids, so a valid
		// spec costs O(n) memory whatever it sends; keep n small enough to
		// fuzz in memory. TestReadSpecRejectsMalformed covers n's bound.
		if len(data) >= specHdrEnd && binary.BigEndian.Uint32(data[specOffN:]) > 1<<16 {
			return
		}
		g, a, prog, err := readSpecBytes(data)
		if err != nil {
			return
		}
		if prog == nil || a.P() < 1 || a.P() > maxMachines || a.NumEdges() != g.NumEdges() || a.AssignedCount() != a.NumEdges() {
			t.Fatalf("accepted spec: program %v, p=%d, %d of %d edges assigned, graph has %d",
				prog, a.P(), a.AssignedCount(), a.NumEdges(), g.NumEdges())
		}
		if _, err := engine.New(g, a); err != nil {
			t.Fatalf("engine.New on an accepted spec: %v", err)
		}
	})
}
