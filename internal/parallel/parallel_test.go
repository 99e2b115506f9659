package parallel

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func TestWorkersResolution(t *testing.T) {
	if got := Workers(7); got != 7 {
		t.Fatalf("explicit worker count ignored: got %d", got)
	}
	t.Setenv(EnvWorkers, "5")
	if got := Workers(0); got != 5 {
		t.Fatalf("env worker count ignored: got %d", got)
	}
	if got := Workers(3); got != 3 {
		t.Fatalf("explicit should beat env: got %d", got)
	}
	t.Setenv(EnvWorkers, "not-a-number")
	if got := Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("bad env should fall back to GOMAXPROCS: got %d", got)
	}
	t.Setenv(EnvWorkers, "-2")
	if got := Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("negative env should fall back to GOMAXPROCS: got %d", got)
	}
}

func TestForEachCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 8, 64} {
		const n = 1000
		counts := make([]atomic.Int32, n)
		ForEach(n, workers, func(i int) {
			counts[i].Add(1)
		})
		for i := range counts {
			if c := counts[i].Load(); c != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, c)
			}
		}
	}
}

func TestForEachZeroAndNegativeN(t *testing.T) {
	ran := false
	ForEach(0, 4, func(int) { ran = true })
	ForEach(-3, 4, func(int) { ran = true })
	if ran {
		t.Fatal("fn ran for empty input")
	}
}

func TestMapPreservesOrder(t *testing.T) {
	for _, workers := range []int{1, 3, 16} {
		const n = 500
		got := Map(n, workers, func(i int) int { return i * i })
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestBoundedConcurrency(t *testing.T) {
	const limit = 3
	var cur, peak atomic.Int32
	ForEach(200, limit, func(int) {
		c := cur.Add(1)
		for {
			p := peak.Load()
			if c <= p || peak.CompareAndSwap(p, c) {
				break
			}
		}
		// Let other workers pile up if the bound were broken.
		runtime.Gosched()
		cur.Add(-1)
	})
	if p := peak.Load(); p > limit {
		t.Fatalf("observed %d concurrent workers, bound is %d", p, limit)
	}
}

func TestForEachErrReturnsLowestIndexError(t *testing.T) {
	for _, workers := range []int{1, 4, 16} {
		err := ForEachErr(100, workers, func(i int) error {
			if i == 17 || i == 63 {
				return fmt.Errorf("item %d failed", i)
			}
			return nil
		})
		if err == nil || err.Error() != "item 17 failed" {
			t.Fatalf("workers=%d: got %v, want item 17 failed", workers, err)
		}
	}
}

func TestForEachErrStopsClaimingAfterFailure(t *testing.T) {
	var ran atomic.Int32
	sentinel := errors.New("boom")
	err := ForEachErr(100000, 4, func(i int) error {
		ran.Add(1)
		if i == 0 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("got %v", err)
	}
	if n := ran.Load(); n == 100000 {
		t.Fatal("pool kept claiming items after the failure")
	}
}

func TestMapErr(t *testing.T) {
	got, err := MapErr(10, 4, func(i int) (int, error) { return i + 1, nil })
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i+1 {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
	_, err = MapErr(10, 4, func(i int) (int, error) {
		if i >= 5 {
			return 0, fmt.Errorf("no %d", i)
		}
		return i, nil
	})
	if err == nil || err.Error() != "no 5" {
		t.Fatalf("got %v, want no 5", err)
	}
}

func TestPanicPropagation(t *testing.T) {
	for _, workers := range []int{1, 4} {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("workers=%d: panic swallowed", workers)
				}
				if !strings.Contains(fmt.Sprint(r), "kaboom") {
					t.Fatalf("workers=%d: panic value lost: %v", workers, r)
				}
			}()
			ForEach(50, workers, func(i int) {
				if i == 13 {
					panic("kaboom")
				}
			})
		}()
	}
}

func TestForEachErrSequentialShortCircuit(t *testing.T) {
	// workers=1 must stop at the first failing index exactly like a loop.
	var ran []int
	err := ForEachErr(10, 1, func(i int) error {
		ran = append(ran, i)
		if i == 3 {
			return errors.New("stop")
		}
		return nil
	})
	if err == nil || err.Error() != "stop" {
		t.Fatalf("got %v", err)
	}
	if len(ran) != 4 {
		t.Fatalf("sequential path ran %v, want [0 1 2 3]", ran)
	}
}

func TestForEachParallelWritesAreVisible(t *testing.T) {
	// The wg.Wait in the pool must publish all worker writes to the caller.
	var mu sync.Mutex
	sum := 0
	ForEach(1000, 8, func(i int) {
		mu.Lock()
		sum += i
		mu.Unlock()
	})
	if want := 1000 * 999 / 2; sum != want {
		t.Fatalf("sum = %d, want %d", sum, want)
	}
}
