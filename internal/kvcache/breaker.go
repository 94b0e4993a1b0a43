package kvcache

import (
	"context"
	"errors"
	"fmt"
	"slices"

	"pdp/internal/resilience"
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
// supervised recompute (panic, stall past RecomputeTimeout, inconsistent
// RDD evidence, per-shard sampler corruption);
// re-arming happens after Config.RearmAfter consecutive clean
// recomputes, which keep running while degraded as the healing probe (on
// an idle cache a periodic Heal is the only one). The flag and the streak
// of clean rounds live in the shard's pdp, under its lock, and change
// only in shard.breaker.

// DegradedShards returns the number of shards currently serving in
// degraded (shadow-LRU) mode: Stats' count, from the one ShardStats pass.
func (c *Cache) DegradedShards() int { return c.Stats().DegradedShards }

// Heal is the breaker's wall-clock healing probe: one supervised recompute
// while any shard serves degraded, so an idle cache still re-arms after
// RearmAfter clean rounds when Heal runs on a timer. A healthy cache is
// left to the inline count trigger in shard.exitLocked: every recompute
// halves the RDD, so a timer firing at low traffic would erase the
// evidence before MinSamples ever accumulates.
func (c *Cache) Heal() {
	if c.DegradedShards() > 0 {
		c.Recompute()
	}
}

// breaker applies one recompute round's verdict to the shard, atomically
// under its lock. A non-empty reason trips it: it restarts the streak even
// when the shard is already degraded. An empty reason is a clean round: a
// degraded shard's streak advances and re-arms it at rearmAfter. A
// transition is booked in the ledger and returned as the journal record
// the caller appends once the lock is released.
func (sh *shard) breaker(reason string, rearmAfter int) telemetry.Record {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	p := sh.pdp
	switch {
	case reason != "":
		if p.streak = 0; !p.trip() {
			return nil
		}
		sh.st.BreakerTrips++
		return telemetry.BreakerRecord{Kind: telemetry.KindBreaker, Shard: sh.id, State: "tripped", Reason: reason}
	case p.deg:
		if p.streak++; p.streak < rearmAfter {
			return nil
		}
		rec := telemetry.BreakerRecord{
			Kind: telemetry.KindBreaker, Shard: sh.id, State: "rearmed", Reason: "clean_recomputes", Streak: p.streak,
		}
		p.deg, p.streak = false, 0
		sh.st.BreakerRearms++
		return rec
	}
	return nil
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

// superviseRecompute runs one round: it takes rmu, runs recomputeLocked
// on the calling goroutine under resilience.Supervisor (panic recovery,
// and RecomputeTimeout's clock, which starts once the round holds rmu),
// and applies every shard's breaker verdict before it releases rmu, so
// rounds never overlap and a queued round's wait is not a stall. A round
// that panics or outlives RecomputeTimeout trips every shard; a stalled
// round still finishes, and its PD stands.
func (c *Cache) superviseRecompute() recomputeOutcome {
	c.rmu.Lock()
	defer c.rmu.Unlock()

	out := recomputeOutcome{old: c.PD()}
	out.pd = out.old // what a panicked round reports
	err := (&resilience.Supervisor{Timeout: c.cfg.RecomputeTimeout}).Run(context.Background(), "kvcache.recompute",
		func(context.Context) error {
			out = c.recomputeLocked()
			return nil
		}).Err

	all := out.violation // the reason every shard trips for, if any
	if err != nil {
		cause, detail := "stall", fmt.Sprintf("recompute exceeded %v", c.cfg.RecomputeTimeout)
		var pe *resilience.PanicError
		if errors.As(err, &pe) {
			cause, detail = "panic", fmt.Sprintf("recompute panic: %v", pe.Value)
		}
		c.cfg.Journal.Append(telemetry.RecoveryRecord{
			Kind: telemetry.KindRecovery, Name: "kvcache.recompute", Cause: cause, Detail: detail,
		})
		all = "recompute_" + cause
	}
	// A shard whose own evidence was corrupt trips alone; every other one
	// of a clean round advances.
	for i, sh := range c.shards {
		reason := all
		if reason == "" && slices.Contains(out.corrupt, i) {
			reason = "sampler_corrupt"
		}
		c.cfg.Journal.Append(sh.breaker(reason, c.cfg.RearmAfter))
	}
	return out
}
