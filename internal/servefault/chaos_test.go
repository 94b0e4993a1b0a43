// Package servefault_test holds the seeded chaos campaign: a real
// pdpcached-shaped server hammered by concurrent clients while the
// injector panics recomputes, flips RDD counters and spikes shard
// latency. The invariants under fire: no request is ever answered with
// an unexplained 5xx (only 503 shed / 504 deadline are orderly), the
// breaker trips into degraded LRU serving instead of failing, and once
// the chaos window closes, clean recomputes re-arm every shard.
package servefault_test

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pdp/internal/faultinject"
	"pdp/internal/kvcache"
	"pdp/internal/kvserver"
	"pdp/internal/telemetry"
)

func startChaosServer(t *testing.T, spec string, shards int) (*kvcache.Cache, string, *faultinject.Reporter) {
	t.Helper()
	parsed, err := faultinject.Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	journal := telemetry.NewJournal(64)
	rep := faultinject.NewReporter(journal)
	inj := faultinject.NewInjector(parsed, shards, rep)
	if inj == nil {
		t.Fatalf("spec %q did not enable serving-path injection", spec)
	}
	cache, err := kvcache.New(kvcache.Config{
		Policy:           kvcache.PolicyPDP,
		Shards:           shards,
		Sets:             16,
		Ways:             4,
		RecomputeEvery:   512,
		MinSamples:       8,
		RearmAfter:       2,
		RecomputeTimeout: time.Second,
		Chaos:            inj,
		Journal:          journal,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := kvserver.New(cache, kvserver.Config{
		Addr:            "127.0.0.1:0",
		MaxInflight:     64,
		DefaultDeadline: 2 * time.Second,
		Journal:         journal,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return cache, "http://" + srv.Addr(), rep
}

func TestChaosCampaign(t *testing.T) {
	const (
		goroutines = 16
		opsEach    = 500
		shards     = 4
	)
	// recompute.panic=0.9 means nearly every recompute inside the chaos
	// window dies; until=4000 closes the window well before the ~16k
	// accesses the campaign generates, so the tail of the run is clean
	// and the breaker can heal.
	cache, base, rep := startChaosServer(t,
		"recompute.panic=0.9,counter.flip=0.02,latency.spike=0.002,spike.ms=1,seed=7,until=4000",
		shards)

	client := &http.Client{Timeout: 5 * time.Second}
	var unexplained atomic.Int64
	var firstBad atomic.Value
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < opsEach; i++ {
				key := fmt.Sprintf("k%03d", (g*31+i)%256)
				resp, err := client.Get(base + "/kv/" + key)
				if err != nil {
					continue // transport errors are the client's problem
				}
				code := resp.StatusCode
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if code >= 500 && code != http.StatusServiceUnavailable && code != http.StatusGatewayTimeout {
					unexplained.Add(1)
					firstBad.Store(fmt.Sprintf("GET %s -> %d", key, code))
					continue
				}
				if code == http.StatusNotFound {
					req, _ := http.NewRequest(http.MethodPut, base+"/kv/"+key, nil)
					if resp, err := client.Do(req); err == nil {
						code := resp.StatusCode
						io.Copy(io.Discard, resp.Body)
						resp.Body.Close()
						if code >= 500 && code != http.StatusServiceUnavailable && code != http.StatusGatewayTimeout {
							unexplained.Add(1)
							firstBad.Store(fmt.Sprintf("PUT %s -> %d", key, code))
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()

	if n := unexplained.Load(); n != 0 {
		t.Fatalf("%d unexplained >=500 responses under chaos (first: %v)", n, firstBad.Load())
	}
	if rep.Total() == 0 {
		t.Fatal("the injector never fired; the campaign tested nothing")
	}
	if cache.Stats().BreakerTrips == 0 {
		t.Fatalf("no breaker trips despite %d injected faults (%v)", rep.Total(), rep.Counts())
	}
	if st := cache.Stats(); st.DegradedOps == 0 {
		t.Fatal("breaker tripped but no ops were served degraded")
	}

	// The chaos window (until=4000 accesses) is long past; clean
	// recomputes must re-arm every shard.
	for i := 0; i < 10 && cache.Degraded(); i++ {
		cache.Recompute()
	}
	if cache.Degraded() {
		t.Fatalf("breaker never re-armed after the chaos window: %d shards degraded",
			cache.DegradedShards())
	}
	if cache.Stats().BreakerRearms == 0 {
		t.Fatal("re-arm transitions not counted")
	}
	if err := cache.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestReadyzTracksBreaker(t *testing.T) {
	// Deterministic readiness check: trip manually, watch /readyz flip.
	cache, base, _ := startChaosServer(t, "recompute.panic=1e-12,seed=1", 2)

	get := func(path string) int {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}

	if code := get("/readyz"); code != http.StatusOK {
		t.Fatalf("fresh server /readyz = %d", code)
	}
	cache.Trip("manual")
	if code := get("/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("degraded /readyz = %d, want 503", code)
	}
	if code := get("/healthz"); code != http.StatusOK {
		t.Fatalf("degraded /healthz = %d; liveness must survive degradation", code)
	}
	for i := 0; i < cache.Config().RearmAfter && cache.Degraded(); i++ {
		cache.Recompute()
	}
	if code := get("/readyz"); code != http.StatusOK {
		t.Fatalf("re-armed /readyz = %d, want 200", code)
	}
}
