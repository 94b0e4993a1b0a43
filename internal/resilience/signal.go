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
// exit. The first signal also restores the signals' default disposition
// before the context is cancelled, so a second signal kills the process:
// the way out of a run that ignores its context.
func WithShutdown(parent context.Context) (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithCancel(parent)
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		select {
		case <-sig:
		case <-ctx.Done():
		}
		signal.Stop(sig)
		cancel()
	}()
	return ctx, cancel
}
