// Package parallel provides the small bounded worker pool used to fan
// independent work items out over the available cores: harness grid cells
// and dataset generation.
//
// The package is stdlib-only and deliberately tiny: an indexed ForEach (with
// an error-collecting variant) and an order-preserving Map. Work items are
// claimed from an atomic counter, so scheduling is dynamic but the mapping
// from item index to result slot is fixed — callers that write results[i]
// inside fn(i) get byte-identical output regardless of the worker count.
//
// Worker counts resolve, in order of precedence: an explicit positive value
// passed by the caller (e.g. harness.Config.Workers), the GRAPHPART_WORKERS
// environment variable, and finally GOMAXPROCS. A resolved count of 1 runs
// fn inline on the calling goroutine with no pool at all.
package parallel

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
)

// EnvWorkers is the environment variable that overrides the default worker
// count for every pool in the process when no explicit count is given.
const EnvWorkers = "GRAPHPART_WORKERS"

// Workers resolves a worker count: explicit (if > 0), else the
// GRAPHPART_WORKERS environment variable (if a positive integer), else
// GOMAXPROCS.
func Workers(explicit int) int {
	if explicit > 0 {
		return explicit
	}
	if s := os.Getenv(EnvWorkers); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			return n
		}
	}
	return runtime.GOMAXPROCS(0)
}

// ForEach runs fn(i) for every i in [0, n) on at most maxWorkers goroutines
// (resolved via Workers). It returns after every item has finished. A panic
// in any fn stops new items from being claimed, and the first recovered
// value is re-raised on the calling goroutine once in-flight items drain.
func ForEach(n, maxWorkers int, fn func(i int)) {
	err := run(n, maxWorkers, func(i int) error {
		fn(i)
		return nil
	})
	if err != nil {
		// run only returns errors from the wrapped fn, which never errs.
		panic(err)
	}
}

// ForEachErr is ForEach for item functions that can fail. When items fail it
// returns the error of the lowest-numbered failing item — the same error a
// sequential loop would have returned first — and stops claiming new items
// after the first failure is observed. Items already in flight still finish.
func ForEachErr(n, maxWorkers int, fn func(i int) error) error {
	return run(n, maxWorkers, fn)
}

// Map runs fn(i) for every i in [0, n) on the pool and returns the results
// in index order.
func Map[T any](n, maxWorkers int, fn func(i int) T) []T {
	out := make([]T, n)
	ForEach(n, maxWorkers, func(i int) {
		out[i] = fn(i)
	})
	return out
}

// MapErr is Map for item functions that can fail, with ForEachErr's
// lowest-index error semantics. On error the returned slice is nil.
func MapErr[T any](n, maxWorkers int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := ForEachErr(n, maxWorkers, func(i int) error {
		v, err := fn(i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// panicError carries a recovered panic value across the pool boundary so it
// can be re-raised on the caller's goroutine.
type panicError struct {
	value any
	stack []byte
}

func (p *panicError) Error() string {
	return fmt.Sprintf("parallel: panic in worker: %v\n%s", p.value, p.stack)
}

// run is the shared pool: items are claimed from an atomic counter, errors
// are kept per item index, and the lowest-index error wins. Because the
// counter hands out indices in ascending order, every index below the first
// failing one has been claimed (and is allowed to finish) before the stop
// flag is set, so the winning error is deterministic.
func run(n, maxWorkers int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	workers := Workers(maxWorkers)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}

	var (
		next    atomic.Int64
		stop    atomic.Bool
		mu      sync.Mutex
		bestIdx = n // lowest failing index seen so far
		bestErr error
		wg      sync.WaitGroup
	)
	record := func(i int, err error) {
		mu.Lock()
		if i < bestIdx {
			bestIdx, bestErr = i, err
		}
		mu.Unlock()
		stop.Store(true)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				err := func() (err error) {
					defer func() {
						if r := recover(); r != nil {
							buf := make([]byte, 4096)
							buf = buf[:runtime.Stack(buf, false)]
							err = &panicError{value: r, stack: buf}
						}
					}()
					return fn(i)
				}()
				if err != nil {
					record(i, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if bestErr != nil {
		if pe, ok := bestErr.(*panicError); ok {
			panic(fmt.Sprintf("parallel: panic in worker: %v\n%s", pe.value, pe.stack))
		}
		return bestErr
	}
	return nil
}
