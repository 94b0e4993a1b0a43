package resilience

import (
	"context"
	"testing"
	"time"
)

func TestEveryTicksUntilStopped(t *testing.T) {
	ticks := make(chan struct{})
	stop := Every(context.Background(), time.Millisecond, func(ctx context.Context) {
		select {
		case ticks <- struct{}{}:
		case <-ctx.Done():
		}
	})
	for i := 0; i < 3; i++ {
		<-ticks
	}
	stop()
	stop() // idempotent
	// stop returned, so the goroutine is gone: nothing can send any more.
	select {
	case <-ticks:
		t.Fatal("ticked after stop")
	default:
	}
}

// TestEveryStopWaitsForInFlightTick: stop must not return while fn is
// still running, and fn must see its context cancelled by stop.
func TestEveryStopWaitsForInFlightTick(t *testing.T) {
	started, finished := make(chan struct{}), make(chan struct{})
	stop := Every(context.Background(), time.Millisecond, func(ctx context.Context) {
		select {
		case started <- struct{}{}:
		default:
			return
		}
		<-ctx.Done()
		time.Sleep(5 * time.Millisecond)
		close(finished)
	})
	<-started
	stop()
	select {
	case <-finished:
	default:
		t.Fatal("stop returned before the in-flight tick finished")
	}
}

func TestEveryEndsWithParentContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	stop := Every(ctx, time.Hour, func(context.Context) { t.Error("ticked") })
	cancel()
	stop() // returns: the goroutine exited on the parent's cancellation
}
