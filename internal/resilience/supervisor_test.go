package resilience

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"pdp/internal/telemetry"
	"pdp/internal/trace"
)

func TestRunSuccess(t *testing.T) {
	j := telemetry.NewJournal(16)
	s := &Supervisor{Journal: j}
	out := s.Run(context.Background(), "ok", func(ctx context.Context) error {
		return nil
	})
	if out.Err != nil {
		t.Fatalf("unexpected failure: %v", out.Err)
	}
	if j.CountKind(telemetry.KindRunStatus) != 2 {
		t.Fatalf("want start+done records, got %d", j.CountKind(telemetry.KindRunStatus))
	}
}

func TestRunRecoversPanic(t *testing.T) {
	j := telemetry.NewJournal(16)
	s := &Supervisor{Journal: j}
	out := s.Run(context.Background(), "boom", func(ctx context.Context) error {
		panic("victim selection exploded")
	})
	var pe *PanicError
	if !errors.As(out.Err, &pe) {
		t.Fatalf("want PanicError, got %v", out.Err)
	}
	if !strings.Contains(string(pe.Stack), "supervisor_test") {
		t.Fatalf("stack missing panic site:\n%s", pe.Stack)
	}
	if j.CountKind(telemetry.KindRecovery) != 1 {
		t.Fatal("panic recovery not journaled")
	}
}

func TestRunWatchdogTimeout(t *testing.T) {
	j := telemetry.NewJournal(16)
	s := &Supervisor{Timeout: 30 * time.Millisecond, Journal: j}
	out := s.Run(context.Background(), "slow", func(ctx context.Context) error {
		<-ctx.Done() // cooperative: unwind when the watchdog fires
		return ctx.Err()
	})
	var we *WatchdogError
	if !errors.As(out.Err, &we) {
		t.Fatalf("want WatchdogError, got %v", out.Err)
	}
	if j.CountKind(telemetry.KindWatchdog) != 1 {
		t.Fatal("watchdog event not journaled")
	}
}

// TestRunFailsPastDeadline: a run that ignores its context and returns
// nil after the watchdog fired still fails, as a watchdog expiry.
func TestRunFailsPastDeadline(t *testing.T) {
	j := telemetry.NewJournal(16)
	s := &Supervisor{Timeout: time.Millisecond, Journal: j}
	out := s.Run(context.Background(), "late", func(ctx context.Context) error {
		time.Sleep(20 * time.Millisecond) // ignores ctx entirely
		return nil
	})
	var we *WatchdogError
	if !errors.As(out.Err, &we) {
		t.Fatalf("want WatchdogError, got %v", out.Err)
	}
	if j.CountKind(telemetry.KindWatchdog) != 1 {
		t.Fatal("watchdog event not journaled")
	}
}

func TestRunParentCancelIsNotWatchdog(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	s := &Supervisor{Timeout: time.Minute}
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	out := s.Run(ctx, "shutdown", func(ctx context.Context) error {
		<-ctx.Done()
		return ctx.Err()
	})
	var we *WatchdogError
	if !errors.Is(out.Err, context.Canceled) || errors.As(out.Err, &we) {
		t.Fatalf("want context.Canceled, not a watchdog timeout, got %v", out.Err)
	}
}

// loopGen is an infinite trivial generator for guard tests.
type loopGen struct{ n uint64 }

func (g *loopGen) Name() string       { return "loop" }
func (g *loopGen) Reset()             { g.n = 0 }
func (g *loopGen) Next() trace.Access { g.n++; return trace.Access{Addr: g.n * 64} }

// TestGuardGeneratorAbortsCancelledRun drives a guarded generator by Next
// and by Fill in blocks of 1000, which the checks fall inside of: either
// way the run unwinds at a check, with the accesses before it drawn and
// the one at it not.
func TestGuardGeneratorAbortsCancelledRun(t *testing.T) {
	buf := make([]trace.Access, 1000)
	for _, drive := range []struct {
		name string
		draw func(g trace.Generator)
	}{
		{"Next", func(g trace.Generator) { g.Next() }},
		{"Fill", func(g trace.Generator) { trace.Fill(g, buf) }},
	} {
		t.Run(drive.name, func(t *testing.T) {
			s := &Supervisor{Timeout: 25 * time.Millisecond}
			inner := &loopGen{}
			out := s.Run(context.Background(), "guarded", func(ctx context.Context) error {
				g := GuardGenerator(ctx, inner)
				for { // hot access loop with no explicit ctx checks
					drive.draw(g)
				}
			})
			var we *WatchdogError
			if !errors.As(out.Err, &we) {
				t.Fatalf("want WatchdogError via guarded generator, got %v", out.Err)
			}
			if inner.n%guardEvery != guardEvery-1 {
				t.Fatalf("aborted with %d accesses drawn, not just before a check", inner.n)
			}
		})
	}
}

func TestGuardGeneratorPassThrough(t *testing.T) {
	g := GuardGenerator(context.Background(), &loopGen{})
	if g.Name() != "loop" {
		t.Fatalf("Name = %q", g.Name())
	}
	a1 := g.Next()
	a2 := g.Next()
	if a1.Addr == a2.Addr {
		t.Fatal("guard altered the stream")
	}
	g.Reset()
	if a := g.Next(); a.Addr != a1.Addr {
		t.Fatalf("after Reset, Addr = %d, want %d", a.Addr, a1.Addr)
	}
}
