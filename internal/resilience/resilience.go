// Package resilience is the supervised run harness of the simulator: it
// runs each experiment or simulation under panic recovery (converted to
// errors with the captured stack), a per-run watchdog timeout and
// SIGINT/SIGTERM graceful shutdown. It also holds the crash-safe file
// write and the periodic job the serving layer builds on.
//
// The PDP paper's mechanisms degrade gracefully by construction — the
// sampler sees 1-in-M accesses, counters saturate, RPDs live in n_c bits —
// and this package gives the *harness* the same property: one bad run, a
// window past its watchdog, or a corrupted input never takes down a
// campaign, and everything the harness survives is journaled through
// internal/telemetry.
package resilience

import (
	"fmt"
	"time"
)

// PanicError is a recovered panic converted to an error, with the stack
// captured at the point of the panic.
type PanicError struct {
	// Value is the value passed to panic.
	Value any
	// Stack is the formatted goroutine stack at recovery.
	Stack []byte
}

// Error implements error.
func (e *PanicError) Error() string {
	return fmt.Sprintf("panic: %v", e.Value)
}

// WatchdogError reports a supervised run exceeding its watchdog timeout.
type WatchdogError struct {
	// Name identifies the run.
	Name string
	// Timeout is the configured bound.
	Timeout time.Duration
}

// Error implements error.
func (e *WatchdogError) Error() string {
	return fmt.Sprintf("%s: watchdog timeout after %v", e.Name, e.Timeout)
}
