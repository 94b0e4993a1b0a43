package kvserver

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"sync/atomic"
	"testing"
	"time"

	"pdp/internal/kvcache"
	"pdp/internal/loadgen"
	"pdp/internal/telemetry"
	"pdp/internal/workload"
)

func startServer(t *testing.T, ccfg kvcache.Config, scfg Config) (*Server, string) {
	t.Helper()
	cache, err := kvcache.New(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	scfg.Addr = "127.0.0.1:0"
	srv, err := New(cache, scfg)
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
	return srv, "http://" + srv.Addr()
}

func TestHTTPRoundTrip(t *testing.T) {
	_, base := startServer(t, kvcache.Config{Shards: 2, Sets: 16, Ways: 4,
		Registry: telemetry.NewRegistry()}, Config{})

	// Missing key: 404 with a miss marker.
	resp, err := http.Get(base + "/kv/absent")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound || resp.Header.Get("X-Cache") != "miss" {
		t.Fatalf("GET absent: %s, X-Cache=%q", resp.Status, resp.Header.Get("X-Cache"))
	}

	// PUT then GET.
	req, _ := http.NewRequest(http.MethodPut, base+"/kv/alpha", bytes.NewReader([]byte("value-1")))
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("PUT: %s", resp.Status)
	}
	resp, err = http.Get(base + "/kv/alpha")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || string(body) != "value-1" || resp.Header.Get("X-Cache") != "hit" {
		t.Fatalf("GET alpha: %s body=%q X-Cache=%q", resp.Status, body, resp.Header.Get("X-Cache"))
	}

	// DELETE then GET.
	req, _ = http.NewRequest(http.MethodDelete, base+"/kv/alpha", nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("DELETE: %s", resp.Status)
	}
	resp, _ = http.Get(base + "/kv/alpha")
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET after DELETE: %s", resp.Status)
	}

	// /stats and /healthz.
	if st := getStats(t, base); st.num("kv.gets") < 3 || st.Policy != "pdp" || st.num("kv.pd") < 1 {
		t.Fatalf("stats %+v", st)
	}
	resp, err = http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %s", resp.Status)
	}
}

func TestValueTooLarge(t *testing.T) {
	_, base := startServer(t, kvcache.Config{Shards: 1, Sets: 4, Ways: 2}, Config{MaxValueBytes: 128})
	req, _ := http.NewRequest(http.MethodPut, base+"/kv/big", bytes.NewReader(make([]byte, 256)))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized PUT: %s", resp.Status)
	}
}

// panicOnce is a kvcache.Chaos whose first recompute panics, tripping
// every shard.
type panicOnce struct{ done atomic.Bool }

func (*panicOnce) Access(int, kvcache.ChaosArray) {}

func (p *panicOnce) Recompute(uint64) {
	if !p.done.Swap(true) {
		panic("injected recompute panic")
	}
}

// TestAdaptEveryHealsTrippedCache: Start runs Cache.Heal every
// AdaptEvery, so a tripped cache with no traffic re-arms.
func TestAdaptEveryHealsTrippedCache(t *testing.T) {
	srv, _ := startServer(t, kvcache.Config{Shards: 2, Sets: 8, Ways: 2, RecomputeEvery: 1 << 30, Chaos: &panicOnce{}},
		Config{AdaptEvery: time.Millisecond})
	srv.cache.Recompute()
	deadline := time.Now().Add(5 * time.Second)
	for srv.cache.DegradedShards() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d shards still degraded after %d recomputes", srv.cache.DegradedShards(), srv.cache.Recomputes())
		}
		time.Sleep(time.Millisecond)
	}
}

func TestConfigValidation(t *testing.T) {
	cache, _ := kvcache.New(kvcache.Config{Shards: 1, Sets: 4, Ways: 2})
	if _, err := New(nil, Config{}); err == nil {
		t.Fatal("nil cache accepted")
	}
	if _, err := New(cache, Config{AdaptEvery: -time.Second}); err == nil {
		t.Fatal("negative AdaptEvery accepted")
	}
	if _, err := New(cache, Config{SnapshotEvery: -time.Second}); err == nil {
		t.Fatal("negative SnapshotEvery accepted")
	}
	if _, err := New(cache, Config{MaxValueBytes: -1}); err == nil {
		t.Fatal("negative MaxValueBytes accepted")
	}
}

func TestSnapshotLoopJournals(t *testing.T) {
	j := telemetry.NewJournal(64)
	_, base := startServer(t,
		kvcache.Config{Shards: 1, Sets: 16, Ways: 4},
		Config{Journal: j, SnapshotEvery: 5 * time.Millisecond})
	for i := 0; i < 50; i++ {
		resp, err := http.Get(base + "/kv/warm")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	deadline := time.Now().Add(2 * time.Second)
	for j.CountKind(telemetry.KindSnapshot) == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if j.CountKind(telemetry.KindSnapshot) == 0 {
		t.Fatal("no snapshot records journaled")
	}
}

// TestE2EPDPBeatsLRU is the serving smoke test: two real servers on
// random ports — one PDP, one LRU — each replaying the identical seeded
// Zipf-with-cyclic-scans burst through the HTTP load generator. One
// worker and no wall-clock adapter make the run a pure function of the
// seed (the PD moves only on the op-count epochs), so the client-observed
// hit rates are the same on every run and the margin can be asserted.
func TestE2EPDPBeatsLRU(t *testing.T) {
	if testing.Short() {
		t.Skip("e2e smoke test")
	}
	mix := workload.ServiceConfig{
		Keys: 300, ZipfS: 0.8, ValueBytes: 64,
		ScanEvery: 200, ScanLen: 400, ScanLoop: 1600,
	}
	run := func(policy kvcache.Policy) loadgen.Result {
		_, base := startServer(t, kvcache.Config{
			Policy: policy, Shards: 4, Sets: 16, Ways: 8,
			RecomputeEvery: 4096,
		}, Config{})
		res, err := loadgen.Run(context.Background(), loadgen.Config{
			BaseURL: base,
			Mix:     mix,
			Workers: 1,
			Ops:     60000,
			Seed:    42,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Errors > 0 {
			t.Fatalf("%s run had %d transport errors", policy, res.Errors)
		}
		return res
	}
	lru := run(kvcache.PolicyLRU)
	pdp := run(kvcache.PolicyPDP)
	t.Logf("e2e: PDP hit rate %.3f (%.0f ops/s, %d denies) vs LRU %.3f (%.0f ops/s)",
		pdp.HitRate(), pdp.Throughput(), pdp.Denies, lru.HitRate(), lru.Throughput())
	if pdp.HitRate() < lru.HitRate()+0.05 {
		t.Fatalf("PDP %.3f not 0.05 over LRU %.3f on the same seeded stream", pdp.HitRate(), lru.HitRate())
	}
}
