package obs

import "testing"

// The zero-overhead contract: with telemetry disabled, every instrumented
// hot-path shape — counter increments, span start/child/end with
// attributes, instant events — performs zero heap allocations. Variadic
// attribute slices must stay on the caller's stack, which these tests pin
// down against escape-analysis regressions.

func TestDisabledCounterAddAllocations(t *testing.T) {
	Disable()
	c := Default.Counter("alloc_test.counter")
	if allocs := testing.AllocsPerRun(1000, func() {
		c.Add(1)
	}); allocs != 0 {
		t.Fatalf("disabled Counter.Add allocates %.1f times per op", allocs)
	}
}

func TestDisabledSpanAllocations(t *testing.T) {
	Disable()
	if allocs := testing.AllocsPerRun(1000, func() {
		sp := Start("alloc_test.span", Int("a", 1), Int64("b", 2), Float("c", 3.5), String("d", "x"))
		child := sp.Child("alloc_test.child", Int("k", 9))
		child.Event("alloc_test.event", Int("e", 1))
		child.EndWith(Int("n", 4))
		sp.End()
	}); allocs != 0 {
		t.Fatalf("disabled span lifecycle allocates %.1f times per op", allocs)
	}
}

func TestDisabledGaugeAllocations(t *testing.T) {
	Disable()
	g := Default.Gauge("alloc_test.gauge")
	if allocs := testing.AllocsPerRun(1000, func() {
		g.Set(7)
		g.Max(9)
	}); allocs != 0 {
		t.Fatalf("disabled gauge allocates %.1f times per op", allocs)
	}
}

func TestDisabledStopwatchAllocations(t *testing.T) {
	Disable()
	if allocs := testing.AllocsPerRun(1000, func() {
		w := StartWatch()
		_ = w.Seconds()
	}); allocs != 0 {
		t.Fatalf("stopwatch allocates %.1f times per op", allocs)
	}
}
