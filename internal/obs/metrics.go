package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. Add is gated on the global
// enabled flag; a disabled Add is one atomic load and a branch.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n when telemetry is enabled.
func (c *Counter) Add(n int64) {
	if enabled.Load() {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a last-value (or max) metric.
type Gauge struct {
	v atomic.Int64
}

// Set stores v when telemetry is enabled.
func (g *Gauge) Set(v int64) {
	if enabled.Load() {
		g.v.Store(v)
	}
}

// Max raises the gauge to v if v exceeds the current value.
func (g *Gauge) Max(v int64) {
	if !enabled.Load() {
		return
	}
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// MetricsSnapshot is a point-in-time copy of a Registry, JSON-serialisable
// with deterministic (sorted) key order.
type MetricsSnapshot struct {
	// Counters maps counter name to value.
	Counters map[string]int64 `json:"counters"`
	// Gauges maps gauge name to value.
	Gauges map[string]int64 `json:"gauges"`
}

// Registry is a named collection of metrics. The zero value is not usable;
// use NewRegistry or the package Default.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
}

// NewRegistry returns an empty metrics registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
	}
}

// Default is the registry package-level instrumentation reports into.
var Default = NewRegistry()

// Counter returns the named counter, creating it on first use. Hot paths
// should call this once and keep the returned pointer.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Reset zeroes every metric in the registry (the metric objects survive, so
// cached pointers stay valid).
func (r *Registry) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range r.counters {
		c.v.Store(0)
	}
	for _, g := range r.gauges {
		g.v.Store(0)
	}
}

// Snapshot copies the registry's current values.
func (r *Registry) Snapshot() MetricsSnapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	snap := MetricsSnapshot{
		Counters: make(map[string]int64, len(r.counters)),
		Gauges:   make(map[string]int64, len(r.gauges)),
	}
	for name, c := range r.counters {
		snap.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		snap.Gauges[name] = g.Value()
	}
	return snap
}

// WriteJSON writes the registry snapshot as indented JSON. Map keys are
// emitted sorted by encoding/json, so the output is deterministic for a
// given metric state.
func (r *Registry) WriteJSON(w io.Writer) error {
	data, err := json.MarshalIndent(r.Snapshot(), "", "  ")
	if err != nil {
		return fmt.Errorf("obs: marshalling metrics: %w", err)
	}
	data = append(data, '\n')
	if _, err := w.Write(data); err != nil {
		return fmt.Errorf("obs: writing metrics: %w", err)
	}
	return nil
}
