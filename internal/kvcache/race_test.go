package kvcache

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pdp/internal/faultinject"
	"pdp/internal/telemetry"
)

// TestConcurrentShardSet drives one shard's set array from 16 goroutines
// while the PD is recomputed concurrently. Run under -race it is the
// repository's lost-update detector for the serving layer; with or without
// the race detector it asserts value integrity (a key reads back either
// absent or as the exact bytes last written for it) and that every
// resident line's RPD stays inside [0, d_max] under churn.
func TestConcurrentShardSet(t *testing.T) {
	c, err := New(Config{
		Shards: 1, Sets: 8, Ways: 4, // tiny: maximal set contention
		RecomputeEvery: 2048,
		MaxBytes:       1 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}

	const (
		workers = 16
		opsPer  = 20000
	)
	ctx, cancel := context.WithCancel(context.Background())
	var workerWG, recomputeWG sync.WaitGroup
	var stale atomic.Uint64

	for g := 0; g < workers; g++ {
		workerWG.Add(1)
		go func(g int) {
			defer workerWG.Done()
			// Disjoint keyspace per goroutine: worker g owns keys g:0..15
			// plus a churn tail of one-shot keys that forces evictions and
			// admission denies in every set.
			written := map[string][]byte{}
			for i := 0; i < opsPer; i++ {
				switch i % 4 {
				case 0:
					k := fmt.Sprintf("g%d:%d", g, i%16)
					v := []byte(fmt.Sprintf("g%d:%d:%d", g, i%16, i))
					if c.Put(k, v) {
						written[k] = v
					} else {
						delete(written, k)
					}
				case 1, 2:
					k := fmt.Sprintf("g%d:%d", g, i%16)
					got, ok := c.Get(k)
					if !ok {
						continue // evicted by budget/set pressure: legal
					}
					want, everWrote := written[k]
					if !everWrote {
						// Admitted later than our bookkeeping saw (a deny we
						// recorded raced an update): the value must still be
						// one of ours for this key.
						if len(got) < len(k) || string(got[:len(k)]) != k {
							t.Errorf("Get(%q) returned foreign value %q", k, got)
						}
						continue
					}
					if string(got) != string(want) {
						stale.Add(1)
						t.Errorf("lost update: Get(%q) = %q, want %q", k, got, want)
					}
				case 3:
					c.Get(fmt.Sprintf("churn%d:%d", g, i)) // one-shot misses
					if i%64 == 63 {
						c.Put(fmt.Sprintf("churn%d:%d", g, i), []byte{0xAA})
					}
				}
			}
		}(g)
	}

	// Concurrent recompute + invariant prodding while traffic runs.
	recomputeWG.Add(1)
	go func() {
		defer recomputeWG.Done()
		for {
			select {
			case <-ctx.Done():
				return
			default:
			}
			c.Recompute()
			if err := c.CheckInvariants(); err != nil {
				t.Error(err)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()

	workerWG.Wait()
	cancel()
	recomputeWG.Wait()

	if n := stale.Load(); n > 0 {
		t.Fatalf("%d lost updates", n)
	}

	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Gets+st.Puts+st.Deletes < workers*opsPer {
		t.Fatalf("ops lost: %d < %d", st.Gets+st.Puts+st.Deletes, workers*opsPer)
	}
	if st.Recomputes == 0 {
		t.Fatal("no concurrent recomputes ran")
	}
	t.Logf("final: %d entries, %d bytes, PD=%d, %d recomputes, %d denies",
		st.Entries, st.Bytes, st.PD, st.Recomputes, st.Denies)
}

// TestConcurrentStatsAndAdapter exercises a wall-clock Heal tick and the
// Stats path concurrently with traffic (all shard locks + rmu interleave).
func TestConcurrentStatsAndAdapter(t *testing.T) {
	c, _ := New(Config{Shards: 4, Sets: 16, Ways: 4, RecomputeEvery: 0})
	stop := healEvery(c, time.Millisecond)

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10000; i++ {
				k := fmt.Sprintf("g%d:%d", g, i%200)
				if _, ok := c.Get(k); !ok {
					c.Put(k, []byte(k))
				}
				if i%1000 == 0 {
					c.Stats()
				}
			}
		}(g)
	}
	wg.Wait()
	stop()
	stop() // idempotent
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if pd := c.PD(); pd < 1 || pd > c.Config().DMax {
		t.Fatalf("PD %d escaped [1, %d]", pd, c.Config().DMax)
	}
}

// TestStatsCountersNeverDecrease: while traffic on several goroutines
// carries the shards across their recompute epochs, so recomputes
// overlap the reads, no cumulative Stats field (every uint64 one)
// decreases between two successive reads. Once traffic stops, the
// sampler totals are exactly the sum of the shards' own sampler Stats.
func TestStatsCountersNeverDecrease(t *testing.T) {
	c, err := New(Config{Shards: 4, Sets: 16, Ways: 4, RecomputeEvery: 64})
	if err != nil {
		t.Fatal(err)
	}
	var traffic sync.WaitGroup
	for g := 0; g < 4; g++ {
		traffic.Add(1)
		go func(g int) {
			defer traffic.Done()
			for i := 0; i < 20000; i++ {
				k := fmt.Sprintf("g%d:%d", g, i%300)
				if _, ok := c.Get(k); !ok {
					c.Put(k, []byte(k))
				}
			}
		}(g)
	}
	stop, reads := make(chan struct{}), 0
	reader := make(chan struct{})
	go func() {
		defer close(reader)
		for prev := c.Stats(); ; reads++ {
			select {
			case <-stop:
				return
			default:
			}
			cur := c.Stats()
			if f, was, now := decreased(prev, cur); f != "" {
				t.Errorf("Stats.%s went backwards after %d reads: %d -> %d", f, reads, was, now)
				return
			}
			prev = cur
		}
	}()
	traffic.Wait()
	close(stop)
	<-reader

	st := c.Stats()
	var accs, hits uint64
	for _, sh := range c.shards {
		sh.mu.Lock()
		accs, hits = accs+sh.pdp.smp.Stats.Accesses, hits+sh.pdp.smp.Stats.Hits
		sh.mu.Unlock()
	}
	if accs == 0 || st.SamplerAccesses != accs || st.SamplerHits != hits {
		t.Fatalf("sampler accesses/hits %d/%d, the shards' samplers count %d/%d", st.SamplerAccesses, st.SamplerHits, accs, hits)
	}
	if st.Recomputes == 0 {
		t.Fatal("no recompute overlapped the reads")
	}
	t.Logf("%d reads over %d recomputes", reads, st.Recomputes)
}

// decreased names the first uint64 field of Stats that is lower in cur
// than in prev ("" when none is), with both values.
func decreased(prev, cur Stats) (field string, was, now uint64) {
	p, c := reflect.ValueOf(prev), reflect.ValueOf(cur)
	for i := 0; i < p.NumField(); i++ {
		if p.Field(i).Kind() == reflect.Uint64 && c.Field(i).Uint() < p.Field(i).Uint() {
			return p.Type().Field(i).Name, p.Field(i).Uint(), c.Field(i).Uint()
		}
	}
	return "", 0, 0
}

// TestBreakerInvariantsUnderChaos: explicit recomputes, Heal ticks, inline
// recomputes and traffic race while a seeded injector panics recomputes
// and flips RDD counters (tripping whole rounds and single shards). Each
// shard's breaker transition is atomic under its own lock, so every
// CheckInvariants call — flag, streak and trip/re-arm ledger agree — holds
// throughout, and once the chaos window closes every shard re-arms.
func TestBreakerInvariantsUnderChaos(t *testing.T) {
	spec, err := faultinject.Parse("recompute.panic=0.3,counter.flip=1e-3,until=40000,seed=7")
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(Config{
		Shards: 4, Sets: 16, Ways: 4,
		RecomputeEvery: 512,
		MinSamples:     8,
		RearmAfter:     2,
		Chaos:          faultinject.NewInjector(spec, 4, nil),
	})
	if err != nil {
		t.Fatal(err)
	}
	stopHeal := healEvery(c, time.Millisecond)
	ctx, cancel := context.WithCancel(context.Background())
	var bg, traffic sync.WaitGroup
	loop := func(f func()) {
		bg.Add(1)
		go func() {
			defer bg.Done()
			for ctx.Err() == nil {
				f()
				time.Sleep(100 * time.Microsecond)
			}
		}()
	}
	loop(func() { c.Recompute() })
	loop(func() {
		if err := c.CheckInvariants(); err != nil {
			t.Error(err)
			cancel()
		}
	})
	for g := 0; g < 4; g++ {
		traffic.Add(1)
		go func(g int) {
			defer traffic.Done()
			for i := 0; i < 20000 && ctx.Err() == nil; i++ {
				k := fmt.Sprintf("g%d:%d", g, i%300)
				if _, ok := c.Get(k); !ok {
					c.Put(k, []byte(k))
				}
			}
		}(g)
	}
	traffic.Wait()
	cancel()
	bg.Wait()
	stopHeal()

	st := c.Stats()
	if st.BreakerTrips == 0 {
		t.Fatalf("no breaker trips in the chaos window: %+v", st)
	}
	t.Logf("%d trips, %d re-arms over %d recomputes", st.BreakerTrips, st.BreakerRearms, st.Recomputes)
	rearm(t, c)
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestBreakerRecordsInOrder: a round holds the recompute lock from the
// merge to its last breaker verdict, so however many goroutines call
// Recompute, each shard's journaled breaker records alternate between
// tripped and rearmed, and the last one matches the shard's flag.
func TestBreakerRecordsInOrder(t *testing.T) {
	j := telemetry.NewJournal(1 << 12)
	n := 0 // counted under the recompute lock
	c := breakerCache(t, Config{Shards: 4, RearmAfter: 1, Journal: j, Chaos: chaosFunc{recompute: func(uint64) {
		if n++; n%2 == 1 {
			panic("injected recompute panic")
		}
	}}})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				c.Recompute()
			}
		}()
	}
	wg.Wait()

	last := map[int]string{}
	for _, r := range j.Tail(j.Len()) {
		b, ok := r.(telemetry.BreakerRecord)
		if !ok {
			continue
		}
		want := "tripped"
		if last[b.Shard] == "tripped" {
			want = "rearmed"
		}
		if b.State != want {
			t.Fatalf("shard %d journaled %s after %q", b.Shard, b.State, last[b.Shard])
		}
		last[b.Shard] = b.State
	}
	for i, sh := range c.shards {
		if got, want := sh.degraded(), last[i] == "tripped"; got != want {
			t.Fatalf("shard %d degraded=%v, but its last breaker record is %q", i, got, last[i])
		}
	}
}
