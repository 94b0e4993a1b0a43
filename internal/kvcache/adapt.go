package kvcache

import (
	"context"
	"fmt"
	"time"

	"pdp/internal/resilience"
)

// Adapter drives the wall-clock side of online PD adaptation: a goroutine
// that recomputes the protecting distance every Interval regardless of
// traffic volume, so a mostly idle service still converges (the inline
// count trigger in shard.exitLocked covers heavy traffic without timer skew).
type Adapter struct {
	cache    *Cache
	interval time.Duration
	stop     func() // no-op until Start
}

// NewAdapter validates the interval and binds an adapter to c. Zero and
// negative intervals are configuration errors, not silent no-ops: the
// caller asked for periodic adaptation, and "never" is not a period.
func NewAdapter(c *Cache, interval time.Duration) (*Adapter, error) {
	if interval <= 0 {
		return nil, fmt.Errorf("kvcache: adapt interval must be positive, got %v", interval)
	}
	return &Adapter{cache: c, interval: interval, stop: func() {}}, nil
}

// Start launches the recompute loop; it returns immediately. The loop
// stops when ctx is cancelled or Stop is called.
func (a *Adapter) Start(ctx context.Context) {
	a.stop = resilience.Every(ctx, a.interval, func(context.Context) { a.cache.Recompute() })
}

// Stop terminates the loop and waits for it to exit. Safe to call more
// than once; a no-op if Start never ran.
func (a *Adapter) Stop() { a.stop() }
