package experiments

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"

	"pdp/internal/resilience"
	"pdp/internal/trace"
	"pdp/internal/workload"
)

// TestEveryStreamIsGuarded: every experiment that reads a stream draws it
// through Config.Bench. Under an already-cancelled Ctx each one unwinds at
// its first guarded draw instead of returning, and every generator it
// built on the way was built through WrapBench: an allocation profile of
// the run holds no model build without viaWrapBench on its stack.
// overhead reads no stream.
func TestEveryStreamIsGuarded(t *testing.T) {
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, e := range Registry() {
		if e.ID == "overhead" {
			continue
		}
		t.Run(e.ID, func(t *testing.T) {
			var buf bytes.Buffer
			cfg := tinyConfig(&buf)
			cfg.WrapBench = viaWrapBench
			before := modelBuilds()
			returned := false
			out := (&resilience.Supervisor{}).Run(ctx, e.ID, func(ctx context.Context) error {
				cfg.Ctx = ctx
				err := e.Run(cfg)
				returned = true
				return err
			})
			if returned {
				t.Fatal("returned normally under a cancelled context")
			}
			if !errors.Is(out.Err, context.Canceled) {
				t.Fatalf("want context.Canceled, got %v", out.Err)
			}
			for stack, n := range modelBuilds() {
				if n > before[stack] && !strings.Contains(stack, ".viaWrapBench.") {
					t.Errorf("built a generator outside Config.Bench:\n%s", stack)
				}
			}
		})
	}
}

// viaWrapBench is a WrapBench that changes no stream; a generator built
// through it has it on its allocation stacks.
func viaWrapBench(b workload.Benchmark) workload.Benchmark {
	build := b.Build
	b.Build = func(sets int, base, seed uint64) trace.Generator {
		return build(sets, base, seed)
	}
	return b
}

// modelBuilds returns the allocation profile's stacks that build a
// workload model's generator (a function literal of package workload, a
// Build, is on the stack), one function name a line, with the objects
// each has allocated so far.
func modelBuilds() map[string]int64 {
	// The profile is up to two collections old: two publish every
	// allocation made before them.
	runtime.GC()
	runtime.GC()
	n, _ := runtime.MemProfile(nil, true)
	recs := make([]runtime.MemProfileRecord, n+64)
	n, _ = runtime.MemProfile(recs, true)
	out := map[string]int64{}
	for _, r := range recs[:n] {
		var stack strings.Builder
		build := false
		frames := runtime.CallersFrames(r.Stack())
		for {
			f, more := frames.Next()
			stack.WriteString(f.Function + "\n")
			build = build || strings.HasPrefix(f.Function, "pdp/internal/workload.") && strings.Contains(f.Function, ".func")
			if !more {
				break
			}
		}
		if build {
			out[stack.String()] += r.AllocObjects
		}
	}
	return out
}
