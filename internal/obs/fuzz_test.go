package obs

import (
	"reflect"
	"testing"
)

// FuzzDecodeSnapshot feeds arbitrary bytes to the decoder a cluster
// coordinator runs on every worker's drained telemetry. It must return an
// error or a snapshot, never panic, and any snapshot it accepts must
// re-encode to bytes that decode to an equal snapshot. (The re-encoding need
// not be byte-equal: the decoder accepts spacing, key case and key order
// that Encode normalises.)
func FuzzDecodeSnapshot(f *testing.F) {
	ps := sampleSnapshot("worker3", 4, 1_700_000_000_000_000_000)
	good, err := ps.Encode()
	if err != nil {
		f.Fatal(err)
	}
	bare := ProcessSnapshot{Process: "worker3"}
	header, err := bare.Encode()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add(header) // header only: no records, no metrics
	f.Add(good[:len(good)-5])

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := DecodeSnapshot(data)
		if err != nil {
			return
		}
		enc, err := got.Encode()
		if err != nil {
			t.Fatalf("accepted snapshot does not encode: %v\nsnapshot %+v", err, got)
		}
		again, err := DecodeSnapshot(enc)
		if err != nil {
			t.Fatalf("re-encoded snapshot does not decode: %v\nsnapshot %+v", err, got)
		}
		if !reflect.DeepEqual(again, got) {
			t.Fatalf("snapshot changed across a round trip:\nfirst  %+v\nsecond %+v", got, again)
		}
	})
}
