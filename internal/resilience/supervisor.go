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
	// Grace is how long, after cancellation, the supervisor waits for the
	// task to notice and unwind before abandoning its goroutine (guarded
	// generators notice within a few thousand accesses). Default 250ms.
	Grace time.Duration
	// Journal receives run_status / watchdog / recovery records (nil
	// disables journaling).
	Journal *telemetry.Journal
}

// Outcome summarizes one supervised run.
type Outcome struct {
	// Name identifies the run.
	Name string
	// Err is nil for a clean completion. Watchdog expiries surface as
	// *WatchdogError, recovered panics as *PanicError, and a harness
	// shutdown as the parent context's error.
	Err error
	// Duration is the run's wall-clock time.
	Duration time.Duration
	// TimedOut marks watchdog expiry; Panicked marks a recovered panic;
	// Abandoned marks a run whose goroutine did not unwind within the grace
	// period (its work is discarded, but it may still burn CPU until
	// process exit).
	TimedOut, Panicked, Abandoned bool
}

// Failed reports whether the run must count as a failure.
func (o Outcome) Failed() bool { return o.Err != nil }

// cancelAbort is the sentinel panic a guarded generator raises when its
// context is cancelled mid-run; Supervisor.Run converts it back to the
// context's error.
type cancelAbort struct{ err error }

// Run executes fn under supervision: a per-run context carrying the
// watchdog timeout, and panic recovery. fn must either honor ctx
// cancellation or drive its access loop through a generator wrapped by
// GuardGenerator, which aborts cooperatively.
func (s *Supervisor) Run(ctx context.Context, name string, fn func(ctx context.Context) error) Outcome {
	if ctx == nil {
		ctx = context.Background()
	}
	runCtx, cancel := ctx, context.CancelFunc(func() {})
	if s.Timeout > 0 {
		runCtx, cancel = context.WithTimeout(ctx, s.Timeout)
	}
	defer cancel()

	start := time.Now()
	s.journal(telemetry.RunStatusRecord{Kind: telemetry.KindRunStatus, Name: name, Status: "start"})

	done := make(chan error, 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				if c, ok := r.(cancelAbort); ok {
					done <- c.err
					return
				}
				done <- &PanicError{Value: r, Stack: debug.Stack()}
			}
		}()
		done <- fn(runCtx)
	}()

	var err error
	abandoned := false
	select {
	case err = <-done:
	case <-runCtx.Done():
		grace := s.Grace
		if grace <= 0 {
			grace = 250 * time.Millisecond
		}
		select {
		case err = <-done:
		case <-time.After(grace):
			err = runCtx.Err()
			abandoned = true
		}
	}

	out := Outcome{Name: name, Err: err, Duration: time.Since(start), Abandoned: abandoned}

	// A run cut down by the watchdog reports deadline expiry whichever way
	// it unwound; a run cut down by the parent (shutdown) keeps the parent's
	// cancellation error.
	if errors.Is(err, context.DeadlineExceeded) && ctx.Err() == nil {
		out.TimedOut = true
		out.Err = &WatchdogError{Name: name, Timeout: s.Timeout}
		s.journal(telemetry.WatchdogRecord{
			Kind: telemetry.KindWatchdog, Name: name, TimeoutSec: s.Timeout.Seconds(),
		})
	}
	var pe *PanicError
	if errors.As(err, &pe) {
		out.Panicked = true
		s.journal(telemetry.RecoveryRecord{
			Kind: telemetry.KindRecovery, Name: name, Cause: "panic",
			Detail: pe.Error(),
		})
	}

	status := "done"
	if out.Err != nil {
		status = "failed"
	}
	rec := telemetry.RunStatusRecord{
		Kind: telemetry.KindRunStatus, Name: name, Status: status,
		Seconds: out.Duration.Seconds(),
	}
	if out.Err != nil {
		rec.Err = out.Err.Error()
	}
	s.journal(rec)
	return out
}

func (s *Supervisor) journal(r telemetry.Record) {
	if s != nil && s.Journal != nil {
		s.Journal.Append(r)
	}
}
