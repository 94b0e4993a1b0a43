package kvcache

import (
	"fmt"
	"time"

	"pdp/internal/telemetry"
)

// Chaos is the serving-path fault-injection seam. A non-nil Config.Chaos
// is invoked at the two places the PDP machinery is exposed to the live
// request stream, so a seeded injector (faultinject.Injector) can corrupt
// RDD counters, stall or panic recomputations, and spike shard latency —
// reproducibly, for chaos campaigns.
//
// Access is called once per shard critical section while the shard lock
// is held: once per operation, or once per ExecBatch shard group. Calls
// for one shard are therefore serialized; calls for different shards are
// concurrent. arr is the shard's live RDD counter array, nil in LRU mode.
// Recompute is called inside the recompute critical section (recomputes
// are serialized) and may panic or sleep; the supervised recompute path
// must absorb both.
type Chaos interface {
	Access(shard int, arr ChaosArray)
	Recompute(seq uint64)
}

// ChaosArray is the slice of the sampler counter-array API a chaos
// injector may touch (so injectors need no sampler import and the cache
// controls the blast radius). It is an alias of an unnamed interface, the
// type faultinject.RDDArray also names, so an injector implements Chaos
// without importing this package.
type ChaosArray = interface {
	K() int
	Corrupt(k int, mask uint32)
	Reset()
}

// The breaker: every shard carries a degraded flag; while degraded it
// serves with shadow-LRU eviction and unconditional admission — the
// baseline policy whose recency stack PDP mode maintains anyway — and
// ignores the protecting distance entirely. Trips are driven by the
// supervised recompute (panic, stall past RecomputeTimeout, PD outside
// [1, d_max], inconsistent RDD evidence, per-shard sampler corruption);
// re-arming happens after Config.RearmAfter consecutive clean
// recomputes, which keep running while degraded as the healing probe (on
// an idle cache a periodic Heal is the only one).

// DegradedShards returns the number of shards currently serving in
// degraded (shadow-LRU) mode, read from each shard's flag under its lock.
func (c *Cache) DegradedShards() int {
	n := 0
	for _, sh := range c.shards {
		sh.mu.Lock()
		if sh.pdp.degraded() {
			n++
		}
		sh.mu.Unlock()
	}
	return n
}

// Degraded reports whether any shard is serving degraded.
func (c *Cache) Degraded() bool { return c.DegradedShards() > 0 }

// Heal is the breaker's wall-clock healing probe: one supervised recompute
// while any shard serves degraded, so an idle cache still re-arms after
// RearmAfter clean rounds when Heal runs on a timer. A healthy cache is
// left to the inline count trigger in shard.exitLocked: every recompute
// halves the RDD, so a timer firing at low traffic would erase the
// evidence before MinSamples ever accumulates.
func (c *Cache) Heal() {
	if c.Degraded() {
		c.Recompute()
	}
}

// Trip forces every shard into degraded LRU mode (the operator's manual
// breaker, also the path every global recompute failure takes).
func (c *Cache) Trip(reason string) {
	c.bmu.Lock()
	defer c.bmu.Unlock()
	c.tripAllLocked(reason)
}

// tripAllLocked trips every shard; the caller holds bmu.
func (c *Cache) tripAllLocked(reason string) {
	for i := range c.shards {
		c.tripShardLocked(i, reason)
	}
}

// tripShardLocked trips one shard (idempotent); the caller holds bmu.
func (c *Cache) tripShardLocked(i int, reason string) {
	c.streaks[i] = 0
	sh := c.shards[i]
	sh.mu.Lock()
	tripped := sh.pdp.trip()
	if tripped {
		sh.st.BreakerTrips++
	}
	sh.mu.Unlock()
	if tripped && c.cfg.Journal != nil {
		c.cfg.Journal.Append(telemetry.BreakerRecord{
			Kind: telemetry.KindBreaker, Shard: i, State: "tripped", Reason: reason,
		})
	}
}

// rearmShardLocked re-arms one degraded shard; the caller holds bmu.
func (c *Cache) rearmShardLocked(i int, streak int) {
	sh := c.shards[i]
	sh.mu.Lock()
	was := sh.pdp.rearm()
	if was {
		sh.st.BreakerRearms++
	}
	sh.mu.Unlock()
	if was && c.cfg.Journal != nil {
		c.cfg.Journal.Append(telemetry.BreakerRecord{
			Kind: telemetry.KindBreaker, Shard: i, State: "rearmed",
			Reason: "clean_recomputes", Streak: streak,
		})
	}
}

// recomputeOutcome is what one supervised recomputation reports upward.
type recomputeOutcome struct {
	old, pd int
	moved   bool
	// violation names a global invariant breach ("" when none): the whole
	// cache trips on it.
	violation string
	// corrupt lists shards whose sampler evidence was internally
	// inconsistent this round (their arrays were reset; they trip alone).
	corrupt []int
}

// superviseRecompute runs one recomputation under panic recovery and the
// optional RecomputeTimeout watchdog, then applies the breaker
// bookkeeping: trips on failure, clean-streak advancement and re-arms on
// success.
func (c *Cache) superviseRecompute() recomputeOutcome {
	type result struct {
		out recomputeOutcome
		err error
	}
	run := func() (res result) {
		defer func() {
			if r := recover(); r != nil {
				res.err = fmt.Errorf("recompute panic: %v", r)
			}
		}()
		res.out = c.recomputeLocked()
		return
	}

	var res result
	timedOut := false
	if c.cfg.RecomputeTimeout <= 0 {
		res = run()
	} else {
		ch := make(chan result, 1)
		go func() { ch <- run() }()
		t := time.NewTimer(c.cfg.RecomputeTimeout)
		select {
		case res = <-ch:
			t.Stop()
		case <-t.C:
			// The stalled goroutine still owns rmu and will finish (and
			// release it) on its own; its eventual PD install is harmless
			// because every shard is about to serve LRU until the breaker
			// re-arms on later clean rounds.
			timedOut = true
		}
	}

	old := c.PD()
	c.bmu.Lock()
	defer c.bmu.Unlock()
	switch {
	case timedOut || res.err != nil:
		cause, detail := "stall", fmt.Sprintf("recompute exceeded %v", c.cfg.RecomputeTimeout)
		if !timedOut {
			cause, detail = "panic", res.err.Error()
		}
		if c.cfg.Journal != nil {
			c.cfg.Journal.Append(telemetry.RecoveryRecord{
				Kind: telemetry.KindRecovery, Name: "kvcache.recompute", Cause: cause, Detail: detail,
			})
		}
		c.tripAllLocked("recompute_" + cause)
		return recomputeOutcome{old: old, pd: old}
	case res.out.violation != "":
		c.tripAllLocked(res.out.violation)
		return res.out
	}
	// A clean round: degraded shards whose evidence was clean advance
	// their streak and re-arm at the threshold.
	corrupt := map[int]bool{}
	for _, i := range res.out.corrupt {
		c.tripShardLocked(i, "sampler_corrupt")
		corrupt[i] = true
	}
	for i, sh := range c.shards {
		if corrupt[i] {
			continue
		}
		sh.mu.Lock()
		deg := sh.pdp.degraded()
		sh.mu.Unlock()
		if !deg {
			continue
		}
		c.streaks[i]++
		if c.streaks[i] >= c.cfg.RearmAfter {
			c.rearmShardLocked(i, c.streaks[i])
			c.streaks[i] = 0
		}
	}
	return res.out
}
