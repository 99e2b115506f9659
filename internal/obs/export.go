package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// exportRecord is one event of the Chrome trace-event exports. Fields follow
// the trace-event format: ph is the phase ('X' complete span, 'i' instant),
// ts/dur are microseconds from the trace epoch, and tid is the record's
// track.
type exportRecord struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int32          `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

func toExport(rec *Record) exportRecord {
	er := exportRecord{
		Name: rec.Name,
		Cat:  "graphpart",
		Ph:   string(rec.Kind),
		Ts:   float64(rec.Start.Nanoseconds()) / 1e3,
		Pid:  0,
		Tid:  rec.Track,
	}
	if rec.Kind == 'X' {
		er.Dur = float64(rec.Dur.Nanoseconds()) / 1e3
	} else {
		er.S = "t" // instant scoped to its thread/track
	}
	if rec.NAttrs > 0 {
		er.Args = make(map[string]any, rec.NAttrs)
		for _, a := range rec.Attrs[:rec.NAttrs] {
			er.Args[a.Key] = a.Value()
		}
	}
	return er
}

// chromeTrace is the top-level Chrome trace-event document.
type chromeTrace struct {
	TraceEvents     []exportRecord `json:"traceEvents"`
	DisplayTimeUnit string         `json:"displayTimeUnit"`
}

// WriteChromeTrace writes the current trace ring in Chrome trace-event
// format — load the file at chrome://tracing (or ui.perfetto.dev) to see
// the nested partition -> stage -> round spans.
func WriteChromeTrace(w io.Writer) error {
	recs, _ := TraceRecords()
	doc := chromeTrace{TraceEvents: make([]exportRecord, len(recs)), DisplayTimeUnit: "ms"}
	for i := range recs {
		doc.TraceEvents[i] = toExport(&recs[i])
	}
	data, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return fmt.Errorf("obs: marshalling chrome trace: %w", err)
	}
	data = append(data, '\n')
	if _, err := w.Write(data); err != nil {
		return fmt.Errorf("obs: writing chrome trace: %w", err)
	}
	return nil
}

// ValidateChromeTrace parses r as a Chrome trace-event document and checks
// the schema invariants the exporters guarantee (known phase letters — 'X'
// complete, 'i' instant, 'M' metadata — and non-negative timestamps and
// durations). It returns the number of trace events.
func ValidateChromeTrace(r io.Reader) (int, error) {
	var doc chromeTrace
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		return 0, fmt.Errorf("obs: parsing chrome trace: %w", err)
	}
	for i, ev := range doc.TraceEvents {
		if ev.Name == "" {
			return 0, fmt.Errorf("obs: trace event %d has no name", i)
		}
		if ev.Ph != "X" && ev.Ph != "i" && ev.Ph != "M" {
			return 0, fmt.Errorf("obs: trace event %d (%s) has unknown phase %q", i, ev.Name, ev.Ph)
		}
		if ev.Ts < 0 || ev.Dur < 0 {
			return 0, fmt.Errorf("obs: trace event %d (%s) has negative ts/dur", i, ev.Name)
		}
	}
	return len(doc.TraceEvents), nil
}

// SpanSummary aggregates every completed span of one name.
type SpanSummary struct {
	// Name is the span name.
	Name string `json:"name"`
	// Count is the number of completed spans.
	Count int `json:"count"`
	// TotalSeconds is the summed duration.
	TotalSeconds float64 `json:"total_seconds"`
	// P50Seconds and P95Seconds are duration percentiles (nearest-rank).
	P50Seconds float64 `json:"p50_seconds"`
	P95Seconds float64 `json:"p95_seconds"`
}

// SummarizeSpans groups the 'X' records of recs by name and reports count,
// total and nearest-rank p50/p95 durations, sorted by descending total.
func SummarizeSpans(recs []Record) []SpanSummary {
	durs := map[string][]float64{}
	var names []string
	for i := range recs {
		if recs[i].Kind != 'X' {
			continue
		}
		name := recs[i].Name
		if _, ok := durs[name]; !ok {
			names = append(names, name)
		}
		durs[name] = append(durs[name], recs[i].Dur.Seconds())
	}
	out := make([]SpanSummary, 0, len(names))
	for _, name := range names {
		ds := durs[name]
		sort.Float64s(ds)
		total := 0.0
		for _, d := range ds {
			total += d
		}
		out = append(out, SpanSummary{
			Name:         name,
			Count:        len(ds),
			TotalSeconds: total,
			P50Seconds:   percentile(ds, 0.50),
			P95Seconds:   percentile(ds, 0.95),
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].TotalSeconds != out[j].TotalSeconds {
			return out[i].TotalSeconds > out[j].TotalSeconds
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// percentile returns the nearest-rank percentile of sorted values.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}
