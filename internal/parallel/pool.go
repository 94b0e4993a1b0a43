// Package parallel is the experiment engine's concurrency seam: a bounded
// worker pool that fans independent simulation tasks across cores while
// keeping every observable output deterministic.
//
// The design contract, relied on by cmd/repro's byte-identical-tables
// guarantee, has three legs:
//
//   - Tasks are pure with respect to shared state: a task derives
//     everything from its index (benchmark, policy spec, seed) and returns
//     a value. Rendering happens after the pool drains, in task order, so
//     `-jobs 1` and `-jobs N` produce identical bytes.
//   - Results are assembled by task index, never by completion order.
//   - Seeds are derived per task id (DeriveSeed), not drawn from a shared
//     stream, so no task's randomness depends on scheduling.
//
// The pool itself is deliberately dumb: no queues shared across calls, no
// global state, just bounded fan-out with ordered collection. The pool
// takes no context: a cancelled run stops at a guarded draw inside a task
// (resilience.GuardGenerator), whose abort Map re-raises on the calling
// goroutine, and the pool only stops launching new tasks once a task has
// failed.
package parallel

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Jobs resolves a user-facing jobs count: values <= 0 select
// runtime.GOMAXPROCS(0), and explicit values clamp to it. Simulation
// tasks are pure CPU with no blocking I/O, so workers beyond the
// schedulable cores cannot add throughput — they only add scheduler
// churn and cache pressure (oversubscription measured ~-8% on the
// experiment grid at jobs = 4x cores). The clamp makes `-jobs 64` on a
// 4-core box mean "all cores", not "thrash".
func Jobs(n int) int {
	p := runtime.GOMAXPROCS(0)
	if n <= 0 || n > p {
		return p
	}
	return n
}

// DeriveSeed deterministically derives a per-task seed from a base seed
// and a task id using FNV-1a over the id, folded into the base. Equal
// (base, id) pairs always yield the same seed, so a task's random streams
// are a function of its identity, never of worker scheduling.
func DeriveSeed(base uint64, taskID string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(taskID); i++ {
		h ^= uint64(taskID[i])
		h *= prime64
	}
	// Mix the base in with a final avalanche (splitmix64 finalizer) so
	// nearby base seeds do not produce nearby task seeds.
	h ^= base
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// Map runs fn(0..n-1) on up to jobs concurrent workers and returns the
// results indexed by task — results[i] is fn(i)'s value regardless of
// completion order. The first error (by task index, not by wall-clock)
// is returned alongside the full results slice; once any task errors, no
// new tasks start, but tasks already running finish. jobs <= 0 selects
// GOMAXPROCS. With jobs == 1 or n <= 1 the tasks run inline on the
// calling goroutine, so serial mode has zero scheduling variance.
//
// A task that panics does not crash the process from a worker goroutine:
// the pool drains and the first captured panic (by task index) is
// re-raised on the calling goroutine. This keeps the resilience
// machinery's panic-based cooperative cancellation (cancelAbort unwinding
// out of guarded generators) and supervisor panic recovery working
// unchanged when runs move onto workers.
func Map[T any](jobs, n int, fn func(i int) (T, error)) ([]T, error) {
	results := make([]T, n)
	if n == 0 {
		return results, nil
	}
	jobs = Jobs(jobs)
	if jobs > n {
		jobs = n
	}
	if jobs <= 1 {
		for i := 0; i < n; i++ {
			r, err := fn(i)
			if err != nil {
				return results, fmt.Errorf("task %d: %w", i, err)
			}
			results[i] = r
		}
		return results, nil
	}

	errs := make([]error, n)
	panics := make([]any, n)
	var next atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < jobs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || failed.Load() {
					return
				}
				err := func() (err error) {
					defer func() {
						if r := recover(); r != nil {
							panics[i] = r
							failed.Store(true)
							err = fmt.Errorf("task %d panicked", i)
						}
					}()
					var r T
					r, err = fn(i)
					results[i] = r
					return err
				}()
				if err != nil {
					errs[i] = err
					failed.Store(true)
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, p := range panics {
		if p != nil {
			panic(p)
		}
	}
	for i, err := range errs {
		if err != nil {
			return results, fmt.Errorf("task %d: %w", i, err)
		}
	}
	return results, nil
}

// ForEach is Map for tasks with no result value.
func ForEach(jobs, n int, fn func(i int) error) error {
	_, err := Map(jobs, n, func(i int) (struct{}, error) {
		return struct{}{}, fn(i)
	})
	return err
}

// Grid runs fn over an rows x cols task grid on up to jobs workers and
// returns out[r][c] = fn(r, c). It flattens the grid row-major into one
// Map call, so cells of different rows run concurrently — the shape most
// experiment tables want (benchmark rows x policy columns).
func Grid[T any](jobs, rows, cols int, fn func(r, c int) (T, error)) ([][]T, error) {
	flat, err := Map(jobs, rows*cols, func(i int) (T, error) {
		return fn(i/cols, i%cols)
	})
	out := make([][]T, rows)
	for r := 0; r < rows; r++ {
		out[r] = flat[r*cols : (r+1)*cols]
	}
	return out, err
}
