package kvcache

import (
	"context"
	"testing"
	"time"

	"pdp/internal/resilience"
)

// chaosFunc adapts plain functions to the Chaos interface.
type chaosFunc struct {
	access    func(shard int, arr ChaosArray)
	recompute func(seq uint64)
}

func (c chaosFunc) Access(shard int, arr ChaosArray) {
	if c.access != nil {
		c.access(shard, arr)
	}
}

func (c chaosFunc) Recompute(seq uint64) {
	if c.recompute != nil {
		c.recompute(seq)
	}
}

// seedEvidence plants consistent reuse evidence in shard 0 so a
// recompute reaches the model (Reuses >= MinSamples, Reuses <= Total).
func seedEvidence(c *Cache) {
	arr := c.shards[0].pdp.smp.Array()
	counts := make([]uint32, arr.K())
	counts[0] = 50
	arr.SetCounts(counts, 200)
}

func breakerCache(t *testing.T, cfg Config) *Cache {
	t.Helper()
	if cfg.Sets == 0 {
		cfg.Sets = 8
	}
	if cfg.Ways == 0 {
		cfg.Ways = 2
	}
	if cfg.Shards == 0 {
		cfg.Shards = 2
	}
	cfg.RecomputeEvery = 1 << 30 // recompute only when the test says so
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func rearm(t *testing.T, c *Cache) {
	t.Helper()
	for i := 0; i < c.Config().RearmAfter && c.Degraded(); i++ {
		c.Recompute()
	}
	if c.Degraded() {
		t.Fatalf("still degraded after %d clean recomputes", c.Config().RearmAfter)
	}
}

func TestBreakerTripsOnRecomputePanic(t *testing.T) {
	boom := 1
	c := breakerCache(t, Config{
		RearmAfter: 2,
		Chaos: chaosFunc{recompute: func(uint64) {
			if boom > 0 {
				boom--
				panic("injected recompute panic")
			}
		}},
	})
	c.Put("a", []byte("x"))
	before := c.PD()

	old, pd, moved := c.Recompute()
	if moved || old != before || pd != before {
		t.Fatalf("panicked recompute moved the PD: old=%d pd=%d moved=%v", old, pd, moved)
	}
	if !c.Degraded() || c.DegradedShards() != c.Config().Shards {
		t.Fatalf("breaker did not trip all shards: degraded=%d", c.DegradedShards())
	}
	if got := c.Stats().BreakerTrips; got != uint64(c.Config().Shards) {
		t.Fatalf("trips = %d, want %d", got, c.Config().Shards)
	}

	// Degraded shards still serve — with LRU eviction and unconditional
	// admission — and the ops are attributed.
	if !c.Put("b", []byte("y")) {
		t.Fatal("degraded put denied")
	}
	if v, ok := c.Get("b"); !ok || string(v) != "y" {
		t.Fatal("degraded get lost the value")
	}
	if st := c.Stats(); st.DegradedOps == 0 || st.DegradedShards != c.Config().Shards {
		t.Fatalf("degraded serving not attributed: %+v", st)
	}

	// Two clean recomputes re-arm every shard.
	rearm(t, c)
	if got := c.Stats().BreakerRearms; got != uint64(c.Config().Shards) {
		t.Fatalf("rearms = %d, want %d", got, c.Config().Shards)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestBreakerTripsOnStall(t *testing.T) {
	stall := 1
	c := breakerCache(t, Config{
		RearmAfter:       1,
		RecomputeTimeout: 20 * time.Millisecond,
		Chaos: chaosFunc{recompute: func(uint64) {
			if stall > 0 {
				stall--
				time.Sleep(150 * time.Millisecond)
			}
		}},
	})
	c.Put("a", []byte("x"))
	c.Recompute()
	if !c.Degraded() {
		t.Fatal("stalled recompute did not trip the breaker")
	}
	// The stalled goroutine finishes on its own and releases the
	// recompute lock; a recompute queued behind it would itself trip the
	// watchdog (queue wait counts as stall), so let it drain first.
	time.Sleep(200 * time.Millisecond)
	rearm(t, c)
}

func TestBreakerTripsCorruptShardOnly(t *testing.T) {
	c := breakerCache(t, Config{Shards: 4, RearmAfter: 1})
	// Shard 0's evidence claims more measured reuses than accesses —
	// impossible, therefore corrupt.
	arr := c.shards[0].pdp.smp.Array()
	counts := make([]uint32, arr.K())
	counts[0] = 100
	arr.SetCounts(counts, 0)
	arr.SetCounts(counts, 2) // Reuses()=100 > Total()=2

	c.Recompute()
	if got := c.DegradedShards(); got != 1 {
		t.Fatalf("degraded shards = %d, want exactly the corrupt one", got)
	}
	if !c.shards[0].degraded() {
		t.Fatal("the corrupt shard is not the degraded one")
	}
	if a := c.shards[0].pdp.smp.Array(); a.Reuses() > a.Total() {
		t.Fatal("corrupt evidence was not reset")
	}
	rearm(t, c)
}

func TestManualTrip(t *testing.T) {
	c := breakerCache(t, Config{RearmAfter: 1})
	c.Trip("manual")
	if !c.Degraded() {
		t.Fatal("manual trip ignored")
	}
	c.Trip("manual") // idempotent
	if got := c.Stats().BreakerTrips; got != uint64(c.Config().Shards) {
		t.Fatalf("double trip double-counted: %d", got)
	}
	rearm(t, c)
}

func TestLockHoldWatchdog(t *testing.T) {
	c := breakerCache(t, Config{
		LockHoldWarn: time.Nanosecond,
		Chaos: chaosFunc{access: func(int, ChaosArray) {
			time.Sleep(100 * time.Microsecond)
		}},
	})
	c.Put("a", []byte("x"))
	c.Get("a")
	if st := c.Stats(); st.LockHoldWarns == 0 {
		t.Fatalf("no lock-hold warnings booked: %+v", st)
	}
}

// degraded reads the shard's breaker flag under its lock (test helper).
func (sh *shard) degraded() bool {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.pdp.degraded()
}

// healEvery runs c.Heal every interval, as kvserver's AdaptEvery does,
// until the returned stop is called.
func healEvery(c *Cache, interval time.Duration) (stop func()) {
	return resilience.Every(context.Background(), interval, func(context.Context) { c.Heal() })
}

// TestAdapterLeavesHealthyCacheAlone: with no shard degraded and no
// traffic, Heal's ticks recompute nothing — each recompute halves the
// RDD, so ticks on a quiet cache would only erase its evidence.
func TestAdapterLeavesHealthyCacheAlone(t *testing.T) {
	c := breakerCache(t, Config{})
	seedEvidence(c)
	t.Cleanup(healEvery(c, time.Millisecond))
	time.Sleep(50 * time.Millisecond)
	if n := c.Recomputes(); n != 0 {
		t.Fatalf("an idle healthy cache recomputed %d times", n)
	}
}

// TestAdapterHealsIdleCache: a tripped cache with no traffic re-arms
// through Heal's ticks alone, the only healing probe it has.
func TestAdapterHealsIdleCache(t *testing.T) {
	c := breakerCache(t, Config{})
	c.Trip("test")
	t.Cleanup(healEvery(c, time.Millisecond))
	deadline := time.Now().Add(5 * time.Second)
	for c.Degraded() {
		if time.Now().After(deadline) {
			t.Fatalf("%d shards still degraded after %d recomputes", c.DegradedShards(), c.Recomputes())
		}
		time.Sleep(time.Millisecond)
	}
	if st := c.Stats(); st.BreakerRearms != uint64(c.Config().Shards) {
		t.Fatalf("rearms = %d, want one per shard (%d)", st.BreakerRearms, c.Config().Shards)
	}
}
