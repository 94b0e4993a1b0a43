package kvcache

import (
	"context"
	"fmt"
	"time"
)

// Adapter drives the wall-clock side of online PD adaptation: a goroutine
// that recomputes the protecting distance every Interval regardless of
// traffic volume, so a mostly idle service still converges (the inline
// count trigger in shard.exitLocked covers heavy traffic without timer skew).
type Adapter struct {
	cache    *Cache
	interval time.Duration
	cancel   context.CancelFunc
	done     chan struct{}
}

// NewAdapter validates the interval and binds an adapter to c. Zero and
// negative intervals are configuration errors, not silent no-ops: the
// caller asked for periodic adaptation, and "never" is not a period.
func NewAdapter(c *Cache, interval time.Duration) (*Adapter, error) {
	if interval <= 0 {
		return nil, fmt.Errorf("kvcache: adapt interval must be positive, got %v", interval)
	}
	return &Adapter{cache: c, interval: interval}, nil
}

// Start launches the recompute loop; it returns immediately. The loop
// stops when ctx is cancelled or Stop is called.
func (a *Adapter) Start(ctx context.Context) {
	ctx, a.cancel = context.WithCancel(ctx)
	a.done = make(chan struct{})
	go func() {
		defer close(a.done)
		t := time.NewTicker(a.interval)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				a.cache.Recompute()
			}
		}
	}()
}

// Stop terminates the loop and waits for it to exit. Safe to call more
// than once; a no-op if Start never ran.
func (a *Adapter) Stop() {
	if a.cancel == nil {
		return
	}
	a.cancel()
	<-a.done
	a.cancel = nil
}
