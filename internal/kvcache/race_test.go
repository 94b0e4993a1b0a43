package kvcache

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
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
