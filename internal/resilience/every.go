package resilience

import (
	"context"
	"time"
)

// Every runs fn once per period on its own goroutine until ctx is
// cancelled or stop is called. fn receives the job's context, so work it
// starts dies with the job. stop cancels that context and waits for an
// in-flight fn to return; it is idempotent and safe to call concurrently.
func Every(ctx context.Context, period time.Duration, fn func(context.Context)) (stop func()) {
	ctx, cancel := context.WithCancel(ctx)
	done := make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(period)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				fn(ctx)
			}
		}
	}()
	return func() {
		cancel()
		<-done
	}
}
