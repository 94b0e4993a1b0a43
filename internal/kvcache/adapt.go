package kvcache

import (
	"context"
	"fmt"
	"time"

	"pdp/internal/resilience"
)

// Adapter is the breaker's wall-clock healing probe: a goroutine that, every
// interval, runs one supervised recompute while any shard serves degraded,
// so an idle cache still re-arms after RearmAfter clean rounds. A healthy
// cache is left to the inline count trigger in shard.exitLocked: every
// recompute halves the RDD, so a timer firing at low traffic would erase
// the evidence before MinSamples ever accumulates.
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

// Start launches the healing loop; it returns immediately. The loop
// stops when ctx is cancelled or Stop is called.
func (a *Adapter) Start(ctx context.Context) {
	a.stop = resilience.Every(ctx, a.interval, func(context.Context) {
		if a.cache.Degraded() {
			a.cache.Recompute()
		}
	})
}

// Stop terminates the loop and waits for it to exit. Safe to call more
// than once; a no-op if Start never ran.
func (a *Adapter) Stop() { a.stop() }
