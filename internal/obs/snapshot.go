package obs

import (
	"bufio"
	"encoding/binary"
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
	// Records is the trace ring in chronological order.
	Records []Record `json:"-"`
	// Metrics is the process's metric registry snapshot.
	Metrics MetricsSnapshot `json:"metrics"`
}

// TraceEpoch returns the absolute wall-clock time the trace ring was
// anchored at (the moment Enable or ResetTrace started recording), or the
// zero time if nothing anchored it yet.
func TraceEpoch() time.Time {
	traceRing.mu.Lock()
	defer traceRing.mu.Unlock()
	return traceRing.epoch
}

// CaptureSnapshot copies the current trace ring and the Default registry
// into a ProcessSnapshot labelled with the given process name and lane id.
func CaptureSnapshot(process string, pid int) ProcessSnapshot {
	recs, dropped := TraceRecords()
	var epoch int64
	if e := TraceEpoch(); !e.IsZero() {
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

// snapshotMagic and snapshotVersion frame the binary snapshot encoding.
// The version is bumped on any layout change; decoders reject unknown
// versions rather than guessing.
var snapshotMagic = [4]byte{'O', 'B', 'S', 'S'}

const snapshotVersion = 2

// Encode serialises the snapshot into the compact versioned binary form
// shipped over the wire: a string table (names, attribute keys and string
// values are deduplicated) followed by varint-packed records and metrics.
func (ps *ProcessSnapshot) Encode() []byte {
	tab := newStringTable()
	tab.add(ps.Process)
	for i := range ps.Records {
		rec := &ps.Records[i]
		tab.add(rec.Name)
		for _, a := range rec.Attrs[:rec.NAttrs] {
			tab.add(a.Key)
			if a.kind == kindString {
				tab.add(a.str)
			}
		}
	}
	counters := sortedKeys(ps.Metrics.Counters)
	gauges := sortedKeys(ps.Metrics.Gauges)
	for _, n := range counters {
		tab.add(n)
	}
	for _, n := range gauges {
		tab.add(n)
	}

	buf := append([]byte(nil), snapshotMagic[:]...)
	buf = append(buf, snapshotVersion)
	buf = binary.AppendUvarint(buf, uint64(len(tab.strs)))
	for _, s := range tab.strs {
		buf = binary.AppendUvarint(buf, uint64(len(s)))
		buf = append(buf, s...)
	}
	buf = binary.AppendUvarint(buf, tab.idx[ps.Process])
	buf = binary.AppendVarint(buf, int64(ps.PID))
	buf = binary.AppendVarint(buf, ps.EpochUnixNano)
	buf = binary.AppendVarint(buf, ps.Dropped)

	buf = binary.AppendUvarint(buf, uint64(len(ps.Records)))
	for i := range ps.Records {
		rec := &ps.Records[i]
		buf = append(buf, rec.Kind)
		buf = binary.AppendVarint(buf, int64(rec.Track))
		buf = binary.AppendVarint(buf, int64(rec.Start))
		buf = binary.AppendVarint(buf, int64(rec.Dur))
		buf = binary.AppendUvarint(buf, uint64(tab.idx[rec.Name]))
		buf = append(buf, rec.NAttrs)
		for _, a := range rec.Attrs[:rec.NAttrs] {
			buf = binary.AppendUvarint(buf, tab.idx[a.Key])
			buf = append(buf, byte(a.kind))
			if a.kind == kindString {
				buf = binary.AppendUvarint(buf, tab.idx[a.str])
			} else {
				buf = binary.LittleEndian.AppendUint64(buf, a.num)
			}
		}
	}

	buf = binary.AppendUvarint(buf, uint64(len(counters)))
	for _, n := range counters {
		buf = binary.AppendUvarint(buf, tab.idx[n])
		buf = binary.AppendVarint(buf, ps.Metrics.Counters[n])
	}
	buf = binary.AppendUvarint(buf, uint64(len(gauges)))
	for _, n := range gauges {
		buf = binary.AppendUvarint(buf, tab.idx[n])
		buf = binary.AppendVarint(buf, ps.Metrics.Gauges[n])
	}
	return buf
}

// DecodeSnapshot parses a snapshot produced by Encode, validating the magic,
// version and every length field against the remaining input.
func DecodeSnapshot(data []byte) (ProcessSnapshot, error) {
	var ps ProcessSnapshot
	d := snapDecoder{buf: data}
	var magic [4]byte
	copy(magic[:], d.bytes(4))
	if d.err == nil && magic != snapshotMagic {
		return ps, fmt.Errorf("obs: snapshot has bad magic %q", magic[:])
	}
	if v := d.u8(); d.err == nil && v != snapshotVersion {
		return ps, fmt.Errorf("obs: snapshot version %d, want %d", v, snapshotVersion)
	}
	nstr := d.length("string table")
	strs := make([]string, 0, nstr)
	for i := 0; i < nstr && d.err == nil; i++ {
		strs = append(strs, string(d.bytes(d.length("string"))))
	}
	str := func(what string) string {
		i := d.uvarint()
		if d.err != nil {
			return ""
		}
		if i >= uint64(len(strs)) {
			d.err = fmt.Errorf("obs: snapshot %s index %d out of range (%d strings)", what, i, len(strs))
			return ""
		}
		return strs[i]
	}

	ps.Process = str("process")
	ps.PID = int(d.varint())
	ps.EpochUnixNano = d.varint()
	ps.Dropped = d.varint()

	nrec := d.length("records")
	ps.Records = make([]Record, 0, nrec)
	for i := 0; i < nrec && d.err == nil; i++ {
		var rec Record
		rec.Kind = d.u8()
		rec.Track = int32(d.varint())
		rec.Start = time.Duration(d.varint())
		rec.Dur = time.Duration(d.varint())
		rec.Name = str("record name")
		rec.NAttrs = d.u8()
		if rec.NAttrs > maxAttrs {
			d.err = fmt.Errorf("obs: snapshot record %d has %d attrs (max %d)", i, rec.NAttrs, maxAttrs)
			break
		}
		for j := 0; j < int(rec.NAttrs) && d.err == nil; j++ {
			a := Attr{Key: str("attr key")}
			a.kind = attrKind(d.u8())
			if a.kind == kindString {
				a.str = str("attr value")
			} else {
				a.num = d.u64()
			}
			rec.Attrs[j] = a
		}
		ps.Records = append(ps.Records, rec)
	}

	ps.Metrics = MetricsSnapshot{
		Counters: map[string]int64{},
		Gauges:   map[string]int64{},
	}
	for i, n := 0, d.length("counters"); i < n && d.err == nil; i++ {
		name := str("counter name")
		ps.Metrics.Counters[name] = d.varint()
	}
	for i, n := 0, d.length("gauges"); i < n && d.err == nil; i++ {
		name := str("gauge name")
		ps.Metrics.Gauges[name] = d.varint()
	}
	if d.err != nil {
		return ProcessSnapshot{}, d.err
	}
	if len(d.buf) != d.off {
		return ProcessSnapshot{}, fmt.Errorf("obs: snapshot has %d trailing bytes", len(d.buf)-d.off)
	}
	return ps, nil
}

// stringTable deduplicates strings for the snapshot encoding.
type stringTable struct {
	idx  map[string]uint64
	strs []string
}

func newStringTable() *stringTable { return &stringTable{idx: map[string]uint64{}} }

func (t *stringTable) add(s string) {
	if _, ok := t.idx[s]; !ok {
		t.idx[s] = uint64(len(t.strs))
		t.strs = append(t.strs, s)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k) //lint:ignore GL001 sorted on the next line
	}
	sort.Strings(keys)
	return keys
}

// snapDecoder reads the snapshot encoding with sticky errors and hard
// bounds checks, so a truncated or hostile payload fails cleanly.
type snapDecoder struct {
	buf []byte
	off int
	err error
}

func (d *snapDecoder) bytes(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || d.off+n > len(d.buf) {
		d.err = fmt.Errorf("obs: snapshot truncated at offset %d (need %d bytes)", d.off, n)
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

func (d *snapDecoder) u8() byte {
	b := d.bytes(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (d *snapDecoder) u64() uint64 {
	b := d.bytes(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (d *snapDecoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		d.err = fmt.Errorf("obs: snapshot has bad uvarint at offset %d", d.off)
		return 0
	}
	d.off += n
	return v
}

func (d *snapDecoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf[d.off:])
	if n <= 0 {
		d.err = fmt.Errorf("obs: snapshot has bad varint at offset %d", d.off)
		return 0
	}
	d.off += n
	return v
}

// length reads a uvarint count and sanity-bounds it against the remaining
// input (every counted element costs at least one byte).
func (d *snapDecoder) length(what string) int {
	v := d.uvarint()
	if d.err != nil {
		return 0
	}
	if v > uint64(len(d.buf)-d.off) {
		d.err = fmt.Errorf("obs: snapshot %s count %d exceeds remaining %d bytes", what, v, len(d.buf)-d.off)
		return 0
	}
	return int(v)
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
