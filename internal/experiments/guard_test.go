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
// through Config.Bench, so every generator it builds is built through
// WrapBench: an allocation profile of the run holds no model build without
// viaWrapBench on its stack. Each experiment runs twice. Under an
// already-cancelled Ctx it unwinds at its first guarded draw instead of
// returning. A live run at a one-access window then reaches the streams
// an experiment builds only after its first draw (fig11c's trajectories
// come after fig11a's rows). overhead reads no stream.
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
			before = checkBuilds(t, "cancelled", before)

			cfg = tinyConfig(&buf)
			cfg.WrapBench = viaWrapBench
			cfg.Accesses, cfg.MCAccessesPerThread, cfg.Mixes4, cfg.Mixes16 = 1, 1, 1, 1
			if err := e.Run(cfg); err != nil {
				t.Fatalf("live run: %v", err)
			}
			checkBuilds(t, "live", before)
		})
	}
}

// checkBuilds fails t for every model build the allocation profile gained
// since before without viaWrapBench on its stack, and returns the profile's
// model builds now.
func checkBuilds(t *testing.T, run string, before map[string]int64) map[string]int64 {
	t.Helper()
	now := modelBuilds()
	for stack, n := range now {
		if n > before[stack] && !strings.Contains(stack, ".viaWrapBench.") {
			t.Errorf("%s run built a generator outside Config.Bench:\n%s", run, stack)
		}
	}
	return now
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
		if stack := buildStack(r.Stack0); stack != "" {
			out[stack] += r.AllocObjects
		}
	}
	return out
}

// buildStacks memoizes buildStack: the profile only grows, and
// symbolizing each of its stacks anew on every call would dominate
// TestEveryStreamIsGuarded.
var buildStacks = map[[32]uintptr]string{}

// buildStack returns the allocation stack pcs as one function name a line
// if it builds a workload model's generator, else "".
func buildStack(pcs [32]uintptr) string {
	if s, ok := buildStacks[pcs]; ok {
		return s
	}
	var stack strings.Builder
	build := false
	r := runtime.MemProfileRecord{Stack0: pcs}
	frames := runtime.CallersFrames(r.Stack())
	for {
		f, more := frames.Next()
		stack.WriteString(f.Function + "\n")
		build = build || strings.HasPrefix(f.Function, "pdp/internal/workload.") && strings.Contains(f.Function, ".func")
		if !more {
			break
		}
	}
	s := ""
	if build {
		s = stack.String()
	}
	buildStacks[pcs] = s
	return s
}
