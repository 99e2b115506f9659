package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

// stepClock advances a fixed step on every reading, making span durations
// deterministic.
type stepClock struct {
	mu   sync.Mutex
	t    time.Time
	step time.Duration
}

func (c *stepClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(c.step)
	return c.t
}

// withTelemetry enables recording against a deterministic clock and
// registers full cleanup. Tests using it must not run in parallel (the
// enabled flag, clock and trace ring are process-global).
func withTelemetry(t *testing.T) {
	t.Helper()
	SetClock(&stepClock{t: time.Unix(1000, 0), step: time.Millisecond})
	SetTraceCapacity(0)
	Enable()
	ResetTrace()
	t.Cleanup(func() {
		Disable()
		SetTraceCapacity(0)
		SetClock(nil)
		Default.Reset()
	})
}

func TestDisabledSpanIsInert(t *testing.T) {
	Disable()
	ResetTrace()
	sp := Start("root", Int("a", 1))
	if sp.Active() {
		t.Fatal("disabled Start returned an active span")
	}
	c := sp.Child("child")
	c.EndWith(Int("b", 2))
	sp.Event("ev")
	sp.End()
	Event("global")
	recs, _ := TraceRecords()
	if len(recs) != 0 {
		t.Fatalf("disabled telemetry recorded %d records", len(recs))
	}
}

func TestSpanNesting(t *testing.T) {
	withTelemetry(t)
	root := Start("root", Int("p", 4))
	child := root.Child("child")
	child.Event("transition", Float("m", 1.5))
	child.EndWith(Int("n", 7))
	root.End()

	other := Start("other")
	other.End()

	recs, dropped := TraceRecords()
	if dropped != 0 {
		t.Fatalf("unexpected drops: %d", dropped)
	}
	if len(recs) != 4 {
		t.Fatalf("got %d records, want 4", len(recs))
	}
	// Recording order: transition event, child, root, other.
	if recs[0].Name != "transition" || recs[0].Kind != 'i' {
		t.Fatalf("record 0 = %q/%c, want transition/i", recs[0].Name, recs[0].Kind)
	}
	if recs[1].Name != "child" || recs[2].Name != "root" {
		t.Fatalf("records 1,2 = %q,%q", recs[1].Name, recs[2].Name)
	}
	if recs[0].Track != recs[2].Track || recs[1].Track != recs[2].Track {
		t.Fatal("child/event did not inherit the root's track")
	}
	if recs[3].Track == recs[2].Track {
		t.Fatal("independent roots share a track")
	}
	// The child must nest strictly inside the root.
	rootRec, childRec := recs[2], recs[1]
	if childRec.Start < rootRec.Start ||
		childRec.Start+childRec.Dur > rootRec.Start+rootRec.Dur {
		t.Fatalf("child [%v +%v] not nested in root [%v +%v]",
			childRec.Start, childRec.Dur, rootRec.Start, rootRec.Dur)
	}
	// Attribute merge: child carries its end attr.
	if childRec.NAttrs != 1 || childRec.Attrs[0].Key != "n" || childRec.Attrs[0].Value() != int64(7) {
		t.Fatalf("child attrs = %+v", childRec.Attrs[:childRec.NAttrs])
	}
}

func TestDoubleEndRecordsOnce(t *testing.T) {
	withTelemetry(t)
	sp := Start("once")
	sp.End()
	sp.End()
	sp.EndWith(Int("late", 1))
	recs, _ := TraceRecords()
	if len(recs) != 1 {
		t.Fatalf("span recorded %d times", len(recs))
	}
}

func TestAttrOverflowTruncates(t *testing.T) {
	withTelemetry(t)
	attrs := make([]Attr, maxAttrs+4)
	for i := range attrs {
		attrs[i] = Int("k", i)
	}
	sp := Start("big", attrs...)
	sp.EndWith(attrs...)
	recs, _ := TraceRecords()
	if len(recs) != 1 || int(recs[0].NAttrs) != maxAttrs {
		t.Fatalf("got %d records, NAttrs=%d, want 1 record with %d attrs",
			len(recs), recs[0].NAttrs, maxAttrs)
	}
}

func TestRingWraps(t *testing.T) {
	withTelemetry(t)
	SetTraceCapacity(8)
	Enable() // SetTraceCapacity cleared the epoch; re-anchor
	for i := 0; i < 20; i++ {
		sp := Start("s", Int("i", i))
		sp.End()
	}
	recs, dropped := TraceRecords()
	if len(recs) != 8 {
		t.Fatalf("ring holds %d records, want 8", len(recs))
	}
	if dropped != 12 {
		t.Fatalf("dropped = %d, want 12", dropped)
	}
	// Oldest-first: the survivors are spans 12..19.
	for i, rec := range recs {
		if got := rec.Attrs[0].Value(); got != int64(12+i) {
			t.Fatalf("record %d carries i=%v, want %d", i, got, 12+i)
		}
	}
}

func TestMetricsRegistry(t *testing.T) {
	withTelemetry(t)
	r := NewRegistry()
	c := r.Counter("rounds")
	c.Add(3)
	c.Add(2)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	if r.Counter("rounds") != c {
		t.Fatal("Counter is not get-or-create")
	}
	g := r.Gauge("frontier")
	g.Set(10)
	g.Max(7)
	g.Max(42)
	if g.Value() != 42 {
		t.Fatalf("gauge = %d, want 42", g.Value())
	}
	snap := r.Snapshot()
	if snap.Counters["rounds"] != 5 || snap.Gauges["frontier"] != 42 {
		t.Fatalf("snapshot = %+v", snap)
	}
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var round MetricsSnapshot
	if err := json.Unmarshal(buf.Bytes(), &round); err != nil {
		t.Fatalf("metrics JSON does not round-trip: %v", err)
	}
	r.Reset()
	if c.Value() != 0 || g.Value() != 0 {
		t.Fatal("Reset left values behind")
	}
}

func TestDisabledMetricsDoNotRecord(t *testing.T) {
	Disable()
	r := NewRegistry()
	c := r.Counter("c")
	c.Add(5)
	r.Gauge("g").Set(5)
	snap := r.Snapshot()
	if snap.Counters["c"] != 0 || snap.Gauges["g"] != 0 {
		t.Fatalf("disabled metrics recorded: %+v", snap)
	}
}

func TestChromeTraceExportAndValidate(t *testing.T) {
	withTelemetry(t)
	root := Start("tlp.partition", Int("p", 4))
	round := root.Child("tlp.round", Int("round", 0))
	round.Event("tlp.stage_transition", Float("modularity", 1.01))
	round.End()
	root.End()

	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	n, err := ValidateChromeTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("validated %d events, want 3", n)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if _, ok := doc["traceEvents"].([]any); !ok {
		t.Fatal("no traceEvents array")
	}
}

func TestValidateChromeTraceRejectsGarbage(t *testing.T) {
	if _, err := ValidateChromeTrace(strings.NewReader(`{"traceEvents":[{"name":"x","ph":"Q","ts":1,"pid":0,"tid":0,"cat":"c"}]}`)); err == nil {
		t.Fatal("unknown phase accepted")
	}
	if _, err := ValidateChromeTrace(strings.NewReader(`not json`)); err == nil {
		t.Fatal("non-JSON accepted")
	}
}

func TestSummarizeSpans(t *testing.T) {
	recs := []Record{
		{Name: "a", Kind: 'X', Dur: 2 * time.Second},
		{Name: "a", Kind: 'X', Dur: 4 * time.Second},
		{Name: "b", Kind: 'X', Dur: 1 * time.Second},
		{Name: "ev", Kind: 'i'},
	}
	sums := SummarizeSpans(recs)
	if len(sums) != 2 {
		t.Fatalf("got %d summaries, want 2", len(sums))
	}
	if sums[0].Name != "a" || sums[0].Count != 2 || sums[0].TotalSeconds != 6 {
		t.Fatalf("summary[0] = %+v", sums[0])
	}
	if sums[0].P50Seconds != 2 || sums[0].P95Seconds != 4 {
		t.Fatalf("percentiles = %v/%v", sums[0].P50Seconds, sums[0].P95Seconds)
	}
	if sums[1].Name != "b" || sums[1].Count != 1 {
		t.Fatalf("summary[1] = %+v", sums[1])
	}
}

func TestStopwatchUsesClockSeam(t *testing.T) {
	SetClock(&stepClock{t: time.Unix(0, 0), step: time.Second})
	t.Cleanup(func() { SetClock(nil) })
	Disable() // stopwatches measure regardless of the enabled flag
	w := StartWatch()
	if got := w.Elapsed(); got != time.Second {
		t.Fatalf("elapsed = %v, want 1s", got)
	}
	if got := w.Seconds(); got != 2 {
		t.Fatalf("seconds = %v, want 2", got)
	}
}

func TestConcurrentRecording(t *testing.T) {
	withTelemetry(t)
	SetClock(nil) // the step clock serialises on a mutex; use the real one
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				sp := Start("worker", Int("w", w))
				c := sp.Child("inner")
				c.End()
				sp.End()
				Default.Counter("concurrent").Add(1)
			}
		}(w)
	}
	wg.Wait()
	if got := Default.Counter("concurrent").Value(); got != 1600 {
		t.Fatalf("counter = %d, want 1600", got)
	}
	recs, _ := TraceRecords()
	if len(recs) != 3200 {
		t.Fatalf("recorded %d records, want 3200", len(recs))
	}
}
