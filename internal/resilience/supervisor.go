package resilience

import (
	"context"
	"errors"
	"runtime/debug"
	"time"

	"pdp/internal/telemetry"
)

// Supervisor runs tasks under panic recovery and an optional watchdog
// timeout, journaling lifecycle, watchdog and recovery events.
type Supervisor struct {
	// Timeout bounds each run's wall-clock time; 0 disables the watchdog.
	Timeout time.Duration
	// Journal receives run_status / watchdog / recovery records (nil
	// disables journaling).
	Journal *telemetry.Journal
}

// Outcome summarizes one supervised run.
type Outcome struct {
	// Err is nil for a clean completion. Watchdog expiries surface as
	// *WatchdogError, recovered panics as *PanicError, and a harness
	// shutdown as the parent context's error.
	Err error
	// Duration is the run's wall-clock time.
	Duration time.Duration
}

// cancelAbort is the sentinel panic a guarded generator raises when its
// context is cancelled mid-run; Supervisor.Run converts it back to the
// context's error.
type cancelAbort struct{ err error }

// Run executes fn on the calling goroutine under supervision: a per-run
// context carrying the watchdog timeout, and panic recovery. fn must
// either honor ctx cancellation or drive its access loop through a
// generator wrapped by GuardGenerator, which aborts cooperatively. A run
// whose context ended before it returned fails, even if fn returned nil.
func (s *Supervisor) Run(ctx context.Context, name string, fn func(ctx context.Context) error) Outcome {
	runCtx, cancel := ctx, context.CancelFunc(func() {})
	if s.Timeout > 0 {
		runCtx, cancel = context.WithTimeout(ctx, s.Timeout)
	}
	defer cancel()

	start := time.Now()
	s.journal(telemetry.RunStatusRecord{Kind: telemetry.KindRunStatus, Name: name, Status: "start"})
	err := call(runCtx, fn)
	if err == nil {
		err = runCtx.Err()
	}
	out := Outcome{Err: err, Duration: time.Since(start)}

	// A run cut down by the watchdog reports deadline expiry whichever way
	// it unwound; a run cut down by the parent (shutdown) keeps the parent's
	// cancellation error.
	if errors.Is(err, context.DeadlineExceeded) && ctx.Err() == nil {
		out.Err = &WatchdogError{Name: name, Timeout: s.Timeout}
		s.journal(telemetry.WatchdogRecord{
			Kind: telemetry.KindWatchdog, Name: name, TimeoutSec: s.Timeout.Seconds(),
		})
	}
	var pe *PanicError
	if errors.As(err, &pe) {
		s.journal(telemetry.RecoveryRecord{
			Kind: telemetry.KindRecovery, Name: name, Cause: "panic",
			Detail: pe.Error(),
		})
	}

	rec := telemetry.RunStatusRecord{
		Kind: telemetry.KindRunStatus, Name: name, Status: "done",
		Seconds: out.Duration.Seconds(),
	}
	if out.Err != nil {
		rec.Status, rec.Err = "failed", out.Err.Error()
	}
	s.journal(rec)
	return out
}

// call runs fn, turning a guarded generator's abort back into the
// context's error and any other panic into a *PanicError.
func call(ctx context.Context, fn func(ctx context.Context) error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			if c, ok := r.(cancelAbort); ok {
				err = c.err
				return
			}
			err = &PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	return fn(ctx)
}

func (s *Supervisor) journal(r telemetry.Record) {
	if s != nil && s.Journal != nil {
		s.Journal.Append(r)
	}
}
