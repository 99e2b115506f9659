package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"
)

// ProcessSnapshot is one process's complete telemetry state — its trace-ring
// records plus a metrics snapshot — stamped with the process identity and
// the absolute wall-clock epoch the record offsets are relative to. Cluster
// workers ship one of these back to the coordinator at drain; the
// coordinator merges them into a single multi-lane trace.
type ProcessSnapshot struct {
	// Process is a human-readable lane label ("coordinator", "worker3").
	Process string `json:"process"`
	// PID is the trace lane id (the cluster machine index + 1; the
	// coordinator is 0). It is a logical id, not an OS pid.
	PID int `json:"pid"`
	// EpochUnixNano is the absolute wall-clock anchor of Record.Start
	// offsets, in Unix nanoseconds (zero if the process never recorded).
	EpochUnixNano int64 `json:"epoch_unix_nano"`
	// Dropped counts records the bounded ring overwrote.
	Dropped int64 `json:"dropped"`
	// Records is the trace ring in chronological order. Encode ships them
	// in their own compact form (snapshotJSON).
	Records []Record `json:"-"`
	// Metrics is the process's metric registry snapshot.
	Metrics MetricsSnapshot `json:"metrics"`
}

// traceEpoch returns the absolute wall-clock time the trace ring was
// anchored at (the moment Enable or ResetTrace started recording), or the
// zero time if nothing anchored it yet.
func traceEpoch() time.Time {
	traceRing.mu.Lock()
	defer traceRing.mu.Unlock()
	return traceRing.epoch
}

// CaptureSnapshot copies the current trace ring and the Default registry
// into a ProcessSnapshot labelled with the given process name and lane id.
func CaptureSnapshot(process string, pid int) ProcessSnapshot {
	recs, dropped := TraceRecords()
	var epoch int64
	if e := traceEpoch(); !e.IsZero() {
		epoch = e.UnixNano()
	}
	return ProcessSnapshot{
		Process:       process,
		PID:           pid,
		EpochUnixNano: epoch,
		Dropped:       dropped,
		Records:       recs,
		Metrics:       Default.Snapshot(),
	}
}

// snapshotJSON is the encoding of a ProcessSnapshot: its header and metrics
// under their own JSON names, plus the records. A full ring is 16,384
// records, so records and attributes use one-letter keys and omit zero
// fields to keep the upload well under the wire's frame bound.
type snapshotJSON struct {
	ProcessSnapshot
	Records []recordJSON `json:"records"`
}

type recordJSON struct {
	Name  string        `json:"n"`
	Kind  string        `json:"k"`
	Track int32         `json:"t,omitempty"`
	Start time.Duration `json:"s,omitempty"`
	Dur   time.Duration `json:"d,omitempty"`
	Attrs []attrJSON    `json:"a,omitempty"`
}

// attrJSON carries an attribute's payload as its raw bits, so int and float
// values round-trip exactly.
type attrJSON struct {
	Key  string   `json:"k"`
	Kind attrKind `json:"t,omitempty"`
	Num  uint64   `json:"n,omitempty"`
	Str  string   `json:"s,omitempty"`
}

// Encode serialises the snapshot as compact JSON, the form a cluster worker
// ships to the coordinator.
func (ps *ProcessSnapshot) Encode() ([]byte, error) {
	out := snapshotJSON{ProcessSnapshot: *ps, Records: make([]recordJSON, len(ps.Records))}
	for i := range ps.Records {
		rec := &ps.Records[i]
		r := recordJSON{Name: rec.Name, Kind: string(rec.Kind), Track: rec.Track, Start: rec.Start, Dur: rec.Dur}
		for _, a := range rec.Attrs[:rec.NAttrs] {
			r.Attrs = append(r.Attrs, attrJSON{Key: a.Key, Kind: a.kind, Num: a.num, Str: a.str})
		}
		out.Records[i] = r
	}
	data, err := json.Marshal(&out)
	if err != nil {
		return nil, fmt.Errorf("obs: encoding snapshot: %w", err)
	}
	return data, nil
}

// DecodeSnapshot parses a snapshot produced by Encode. The bytes come from
// another process, so it rejects unknown fields, trailing data, record kinds
// other than 'X' and 'i', unknown attribute kinds and records with more than
// maxAttrs attributes.
func DecodeSnapshot(data []byte) (ProcessSnapshot, error) {
	var in snapshotJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&in); err != nil {
		return ProcessSnapshot{}, fmt.Errorf("obs: decoding snapshot: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return ProcessSnapshot{}, fmt.Errorf("obs: snapshot has trailing data after byte %d", dec.InputOffset())
	}
	ps := in.ProcessSnapshot
	ps.Records = make([]Record, len(in.Records))
	for i, r := range in.Records {
		if r.Kind != "X" && r.Kind != "i" {
			return ProcessSnapshot{}, fmt.Errorf("obs: snapshot record %d has kind %q (want X or i)", i, r.Kind)
		}
		if len(r.Attrs) > maxAttrs {
			return ProcessSnapshot{}, fmt.Errorf("obs: snapshot record %d has %d attrs (max %d)", i, len(r.Attrs), maxAttrs)
		}
		rec := Record{Name: r.Name, Kind: r.Kind[0], Track: r.Track, Start: r.Start, Dur: r.Dur, NAttrs: uint8(len(r.Attrs))}
		for j, a := range r.Attrs {
			if a.Kind > kindString {
				return ProcessSnapshot{}, fmt.Errorf("obs: snapshot record %d attr %q has unknown kind %d", i, a.Key, a.Kind)
			}
			rec.Attrs[j] = Attr{Key: a.Key, str: a.Str, num: a.Num, kind: a.Kind}
		}
		ps.Records[i] = rec
	}
	return ps, nil
}

// MergeSnapshots aggregates per-process metrics into one machine-labelled
// snapshot: every counter and gauge appears once per process under
// "<process>/<name>", and counters additionally sum across processes under
// the plain name (gauges take the max). This is the cluster-wide view
// graphd /metrics serves after a cluster run.
func MergeSnapshots(snaps []ProcessSnapshot) MetricsSnapshot {
	out := MetricsSnapshot{
		Counters: map[string]int64{},
		Gauges:   map[string]int64{},
	}
	for i := range snaps {
		ps := &snaps[i]
		for name, v := range ps.Metrics.Counters {
			out.Counters[ps.Process+"/"+name] = v
			out.Counters[name] += v
		}
		for name, v := range ps.Metrics.Gauges {
			out.Gauges[ps.Process+"/"+name] = v
			if cur, ok := out.Gauges[name]; !ok || v > cur {
				out.Gauges[name] = v
			}
		}
	}
	return out
}

// SkewInstant is one per-superstep barrier-skew measurement: the spread
// between the first and the last machine to enter the superstep (max−min
// phase-entry time across processes) — the direct view of stragglers.
type SkewInstant struct {
	// Step is the superstep index.
	Step int `json:"step"`
	// SkewNanos is the max−min phase-entry spread.
	SkewNanos int64 `json:"skew_nanos"`
	// AtNanos is the absolute Unix-nano time of the last entry (where the
	// instant is drawn in the merged trace).
	AtNanos int64 `json:"at_nanos"`
	// First and Last name the earliest- and latest-entering processes.
	First string `json:"first"`
	Last  string `json:"last"`
}

// ComputeBarrierSkew measures per-superstep barrier skew across process
// snapshots: for every 'X' record named spanName carrying an integer "step"
// attribute, the absolute entry time is EpochUnixNano + Record.Start, and
// each step's skew is the spread between the earliest and latest process.
// Steps seen by fewer than two processes are skipped.
func ComputeBarrierSkew(snaps []ProcessSnapshot, spanName string) []SkewInstant {
	type entry struct {
		min, max    int64
		first, last string
		procs       int
	}
	byStep := map[int]*entry{}
	for i := range snaps {
		ps := &snaps[i]
		seen := map[int]bool{}
		for j := range ps.Records {
			rec := &ps.Records[j]
			if rec.Kind != 'X' || rec.Name != spanName {
				continue
			}
			step, ok := intAttr(rec, "step")
			if !ok {
				continue
			}
			at := ps.EpochUnixNano + rec.Start.Nanoseconds()
			e := byStep[step]
			if e == nil {
				e = &entry{min: at, max: at, first: ps.Process, last: ps.Process}
				byStep[step] = e
			} else {
				if at < e.min {
					e.min, e.first = at, ps.Process
				}
				if at > e.max {
					e.max, e.last = at, ps.Process
				}
			}
			if !seen[step] {
				seen[step] = true
				e.procs++
			}
		}
	}
	steps := make([]int, 0, len(byStep))
	for s, e := range byStep {
		if e.procs >= 2 {
			steps = append(steps, s) //lint:ignore GL001 sorted before use below
		}
	}
	sort.Ints(steps)
	out := make([]SkewInstant, 0, len(steps))
	for _, s := range steps {
		e := byStep[s]
		out = append(out, SkewInstant{
			Step:      s,
			SkewNanos: e.max - e.min,
			AtNanos:   e.max,
			First:     e.first,
			Last:      e.last,
		})
	}
	return out
}

func intAttr(rec *Record, key string) (int, bool) {
	for _, a := range rec.Attrs[:rec.NAttrs] {
		if a.Key == key && a.kind == kindInt {
			return int(int64(a.num)), true
		}
	}
	return 0, false
}

// WriteMergedChromeTrace writes multiple process snapshots as one Chrome
// trace-event document: each snapshot becomes a process lane (pid =
// snapshot PID, named by an 'M' process_name metadata event), record
// timestamps are rebased onto a common origin (the earliest snapshot
// epoch) so cross-process ordering is faithful, and each SkewInstant is
// drawn as a global 'i' instant on the first snapshot's lane.
func WriteMergedChromeTrace(w io.Writer, snaps []ProcessSnapshot, skews []SkewInstant) error {
	var base int64
	for i := range snaps {
		e := snaps[i].EpochUnixNano
		if e != 0 && (base == 0 || e < base) {
			base = e
		}
	}
	n := 0
	for i := range snaps {
		n += 2 + len(snaps[i].Records)
	}
	doc := chromeTrace{TraceEvents: make([]exportRecord, 0, n+len(skews)), DisplayTimeUnit: "ms"}
	for i := range snaps {
		ps := &snaps[i]
		doc.TraceEvents = append(doc.TraceEvents,
			exportRecord{Name: "process_name", Cat: "graphpart", Ph: "M", Pid: ps.PID,
				Args: map[string]any{"name": ps.Process}},
			exportRecord{Name: "process_sort_index", Cat: "graphpart", Ph: "M", Pid: ps.PID,
				Args: map[string]any{"sort_index": ps.PID}},
		)
		offsetUs := float64(ps.EpochUnixNano-base) / 1e3
		for j := range ps.Records {
			er := toExport(&ps.Records[j])
			er.Pid = ps.PID
			er.Ts += offsetUs
			doc.TraceEvents = append(doc.TraceEvents, er)
		}
	}
	for _, sk := range skews {
		pid := 0
		if len(snaps) > 0 {
			pid = snaps[0].PID
		}
		doc.TraceEvents = append(doc.TraceEvents, exportRecord{
			Name: "cluster.barrier_skew",
			Cat:  "graphpart",
			Ph:   "i",
			Ts:   float64(sk.AtNanos-base) / 1e3,
			Pid:  pid,
			S:    "g",
			Args: map[string]any{
				"step":    sk.Step,
				"skew_us": float64(sk.SkewNanos) / 1e3,
				"first":   sk.First,
				"last":    sk.Last,
			},
		})
	}
	bw := bufio.NewWriter(w)
	data, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return fmt.Errorf("obs: marshalling merged chrome trace: %w", err)
	}
	if _, err := bw.Write(append(data, '\n')); err != nil {
		return fmt.Errorf("obs: writing merged chrome trace: %w", err)
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("obs: flushing merged chrome trace: %w", err)
	}
	return nil
}
