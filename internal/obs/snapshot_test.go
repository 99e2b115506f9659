package obs

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

func sampleSnapshot(process string, pid int, epoch int64) ProcessSnapshot {
	ps := ProcessSnapshot{
		Process:       process,
		PID:           pid,
		EpochUnixNano: epoch,
		Dropped:       3,
		Metrics: MetricsSnapshot{
			Counters: map[string]int64{"engine.messages": 42, "engine.supersteps": 5},
			Gauges:   map[string]int64{"engine.active": 7},
		},
	}
	rec := Record{Name: "wire.worker.superstep", Kind: 'X', Track: 1,
		Start: 5 * time.Millisecond, Dur: 2 * time.Millisecond}
	rec.Attrs[0] = Int("step", 4)
	rec.Attrs[1] = Float("ratio", 0.25)
	rec.Attrs[2] = String("label", process)
	rec.NAttrs = 3
	ev := Record{Name: "mark", Kind: 'i', Track: 1, Start: 6 * time.Millisecond}
	ps.Records = []Record{rec, ev}
	return ps
}

func TestSnapshotRoundTrip(t *testing.T) {
	want := sampleSnapshot("worker3", 4, 1_700_000_000_000_000_000)
	data, err := want.Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	got, err := DecodeSnapshot(data)
	if err != nil {
		t.Fatalf("DecodeSnapshot: %v", err)
	}
	if got.Process != want.Process || got.PID != want.PID ||
		got.EpochUnixNano != want.EpochUnixNano || got.Dropped != want.Dropped {
		t.Fatalf("header mismatch: got %+v", got)
	}
	if len(got.Records) != len(want.Records) {
		t.Fatalf("got %d records, want %d", len(got.Records), len(want.Records))
	}
	for i := range want.Records {
		w, g := want.Records[i], got.Records[i]
		if g.Name != w.Name || g.Kind != w.Kind || g.Track != w.Track ||
			g.Start != w.Start || g.Dur != w.Dur || g.NAttrs != w.NAttrs {
			t.Fatalf("record %d mismatch: got %+v want %+v", i, g, w)
		}
		for j := 0; j < int(w.NAttrs); j++ {
			if g.Attrs[j].Key != w.Attrs[j].Key || g.Attrs[j].Value() != w.Attrs[j].Value() {
				t.Fatalf("record %d attr %d: got %v=%v want %v=%v",
					i, j, g.Attrs[j].Key, g.Attrs[j].Value(), w.Attrs[j].Key, w.Attrs[j].Value())
			}
		}
	}
	if got.Metrics.Counters["engine.messages"] != 42 ||
		got.Metrics.Gauges["engine.active"] != 7 {
		t.Fatalf("metrics mismatch: %+v", got.Metrics)
	}
}

func TestSnapshotDecodeRejectsCorruption(t *testing.T) {
	src := sampleSnapshot("w", 1, 12345)
	good, err := src.Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	if _, err := DecodeSnapshot(good); err != nil {
		t.Fatalf("valid encoding rejected: %v", err)
	}
	// edit replaces the one occurrence of old in the valid encoding.
	edit := func(old, new string) []byte {
		if n := bytes.Count(good, []byte(old)); n != 1 {
			t.Fatalf("encoding holds %q %d times, want once:\n%s", old, n, good)
		}
		return bytes.Replace(good, []byte(old), []byte(new), 1)
	}
	cases := map[string][]byte{
		"empty":          nil,
		"truncated":      good[:len(good)-5],
		"trailing":       append(append([]byte(nil), good...), 0xFF),
		"second value":   append(append([]byte(nil), good...), "{}"...),
		"unknown field":  edit(`{"process"`, `{"extra":1,"process"`),
		"bad kind":       edit(`"k":"X"`, `"k":"Q"`),
		"bad attr kind":  edit(`"t":2`, `"t":7`),
		"too many attrs": edit(`"a":[`, `"a":[`+strings.Repeat(`{"k":"x"},`, maxAttrs)),
	}
	for name, data := range cases {
		if _, err := DecodeSnapshot(data); err == nil {
			t.Errorf("%s: DecodeSnapshot accepted corrupt input", name)
		}
	}
	// Every prefix must fail cleanly rather than panic.
	for i := 0; i < len(good); i++ {
		if _, err := DecodeSnapshot(good[:i]); err == nil {
			t.Fatalf("prefix of %d bytes decoded without error", i)
		}
	}
}

func TestCaptureSnapshot(t *testing.T) {
	withTelemetry(t)
	Default.Counter("test.captured").Add(9)
	sp := Start("test.span", Int("step", 1))
	sp.End()
	ps := CaptureSnapshot("coordinator", 0)
	if ps.Process != "coordinator" || ps.PID != 0 {
		t.Fatalf("identity mismatch: %+v", ps)
	}
	if ps.EpochUnixNano == 0 {
		t.Fatal("epoch not captured")
	}
	if len(ps.Records) != 1 || ps.Records[0].Name != "test.span" {
		t.Fatalf("records: %+v", ps.Records)
	}
	if ps.Metrics.Counters["test.captured"] != 9 {
		t.Fatalf("metrics: %+v", ps.Metrics.Counters)
	}
}

func TestMergeSnapshots(t *testing.T) {
	a := sampleSnapshot("worker0", 1, 100)
	b := sampleSnapshot("worker1", 2, 200)
	b.Metrics.Counters["engine.messages"] = 58
	b.Metrics.Gauges["engine.active"] = 3
	merged := MergeSnapshots([]ProcessSnapshot{a, b})
	if got := merged.Counters["engine.messages"]; got != 100 {
		t.Fatalf("aggregate counter = %d, want 100", got)
	}
	if merged.Counters["worker0/engine.messages"] != 42 ||
		merged.Counters["worker1/engine.messages"] != 58 {
		t.Fatalf("labelled counters: %+v", merged.Counters)
	}
	if merged.Gauges["engine.active"] != 7 { // max across processes
		t.Fatalf("aggregate gauge = %d, want 7", merged.Gauges["engine.active"])
	}
}

func TestComputeBarrierSkew(t *testing.T) {
	mk := func(process string, epoch int64, starts ...time.Duration) ProcessSnapshot {
		ps := ProcessSnapshot{Process: process, EpochUnixNano: epoch}
		for step, st := range starts {
			rec := Record{Name: "wire.worker.superstep", Kind: 'X', Track: 1, Start: st, Dur: time.Millisecond}
			rec.Attrs[0] = Int("step", step)
			rec.NAttrs = 1
			ps.Records = append(ps.Records, rec)
		}
		return ps
	}
	fast := mk("worker0", 1_000_000, 0, 10*time.Microsecond)
	slow := mk("worker1", 1_000_000, 3*time.Microsecond, 25*time.Microsecond)
	skews := ComputeBarrierSkew([]ProcessSnapshot{fast, slow}, "wire.worker.superstep")
	if len(skews) != 2 {
		t.Fatalf("got %d skew instants, want 2", len(skews))
	}
	if skews[0].Step != 0 || skews[0].SkewNanos != 3000 ||
		skews[0].First != "worker0" || skews[0].Last != "worker1" {
		t.Fatalf("step 0 skew: %+v", skews[0])
	}
	if skews[1].SkewNanos != 15000 || skews[1].AtNanos != 1_000_000+25000 {
		t.Fatalf("step 1 skew: %+v", skews[1])
	}

	// A step only one process entered yields no instant.
	solo := ComputeBarrierSkew([]ProcessSnapshot{fast}, "wire.worker.superstep")
	if len(solo) != 0 {
		t.Fatalf("single-process skew: %+v", solo)
	}
}

func TestWriteMergedChromeTrace(t *testing.T) {
	a := sampleSnapshot("coordinator", 0, 1_000_000_000)
	b := sampleSnapshot("worker0", 1, 1_000_500_000)
	skews := []SkewInstant{{Step: 0, SkewNanos: 400, AtNanos: 1_000_600_000, First: "a", Last: "b"}}
	var buf bytes.Buffer
	if err := WriteMergedChromeTrace(&buf, []ProcessSnapshot{a, b}, skews); err != nil {
		t.Fatalf("WriteMergedChromeTrace: %v", err)
	}
	n, err := ValidateChromeTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ValidateChromeTrace: %v", err)
	}
	// 2 metadata + 2 records per snapshot, plus one skew instant.
	if n != 2*(2+2)+1 {
		t.Fatalf("got %d events, want 9", n)
	}
	out := buf.String()
	for _, want := range []string{`"process_name"`, `"cluster.barrier_skew"`, `"worker0"`, `"ph": "M"`} {
		if !strings.Contains(out, want) {
			t.Fatalf("merged trace missing %s:\n%s", want, out)
		}
	}
}

// --- percentile boundary hardening ---

func TestPercentileBoundaries(t *testing.T) {
	cases := []struct {
		name     string
		vals     []float64
		p50, p95 float64
	}{
		{"empty", nil, 0, 0},
		{"one", []float64{4}, 4, 4},
		{"two", []float64{1, 9}, 1, 9},
		{"three", []float64{1, 5, 9}, 5, 9},
	}
	for _, tc := range cases {
		if got := percentile(tc.vals, 0.50); got != tc.p50 {
			t.Errorf("%s: p50 = %v, want %v", tc.name, got, tc.p50)
		}
		if got := percentile(tc.vals, 0.95); got != tc.p95 {
			t.Errorf("%s: p95 = %v, want %v", tc.name, got, tc.p95)
		}
	}
}

func TestSummarizeSpansSmallSamples(t *testing.T) {
	mk := func(n int) []Record {
		recs := make([]Record, n)
		for i := range recs {
			recs[i] = Record{Name: "s", Kind: 'X', Dur: time.Duration(i+1) * time.Second}
		}
		return recs
	}
	if got := SummarizeSpans(nil); len(got) != 0 {
		t.Fatalf("empty summary: %+v", got)
	}
	one := SummarizeSpans(mk(1))[0]
	if one.P50Seconds != 1 || one.P95Seconds != 1 {
		t.Fatalf("1-sample percentiles: %+v", one)
	}
	two := SummarizeSpans(mk(2))[0]
	if two.P50Seconds != 1 || two.P95Seconds != 2 {
		t.Fatalf("2-sample percentiles: %+v", two)
	}
}

func TestRingEvictsOldestAtTinyCapacities(t *testing.T) {
	withTelemetry(t)
	for _, capN := range []int{1, 2, 3} {
		SetTraceCapacity(capN)
		Enable() // re-anchor after capacity reset
		const total = 7
		for i := 0; i < total; i++ {
			sp := Start("s", Int("i", i))
			sp.End()
		}
		recs, dropped := TraceRecords()
		if len(recs) != capN {
			t.Fatalf("cap %d: ring holds %d", capN, len(recs))
		}
		if want := int64(total - capN); dropped != want {
			t.Fatalf("cap %d: dropped %d, want %d", capN, dropped, want)
		}
		// Survivors must be the newest records, oldest-first.
		for j, rec := range recs {
			i, ok := intAttr(&rec, "i")
			if !ok || i != total-capN+j {
				t.Fatalf("cap %d: survivor %d is i=%d (ok=%v), want %d", capN, j, i, ok, total-capN+j)
			}
		}
	}
}
