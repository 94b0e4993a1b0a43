package resilience

import (
	"context"
	"os"
	"os/signal"
	"syscall"
)

// WithShutdown returns a context cancelled on SIGINT or SIGTERM, for
// graceful campaign shutdown: the access loops (guarded generators) abort
// cooperatively, the supervisor reports the interrupted run, and the
// caller's deferred flushes write partial tables and telemetry before
// exit. A second signal while shutting down kills the
// process with the default disposition (stop restores it).
func WithShutdown(parent context.Context) (context.Context, context.CancelFunc) {
	if parent == nil {
		parent = context.Background()
	}
	return signal.NotifyContext(parent, os.Interrupt, syscall.SIGTERM)
}
