package kvserver

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pdp/internal/cluster"
	"pdp/internal/kvcache"
	"pdp/internal/loadgen"
	"pdp/internal/telemetry"
	"pdp/internal/workload"
)

// TestReadOnlyEndpointsRejectWrites pins the 405 contract: every
// read-only endpoint answers non-GET methods with MethodNotAllowed and
// an Allow header, without touching its handler.
func TestReadOnlyEndpointsRejectWrites(t *testing.T) {
	_, base := startServer(t, kvcache.Config{Shards: 1, Sets: 16, Ways: 4}, Config{})
	for _, route := range []string{"/stats", "/healthz", "/metrics", "/debug/decisions"} {
		for _, method := range []string{http.MethodPost, http.MethodPut, http.MethodDelete} {
			req, _ := http.NewRequest(method, base+route, bytes.NewReader([]byte("x")))
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusMethodNotAllowed {
				t.Fatalf("%s %s: %s, want 405", method, route, resp.Status)
			}
			if resp.Header.Get("Allow") != http.MethodGet {
				t.Fatalf("%s %s: Allow=%q", method, route, resp.Header.Get("Allow"))
			}
		}
		// GET still works.
		resp, err := http.Get(base + route)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s", route, resp.Status)
		}
	}
}

// TestRequestIDHeader: the middleware echoes a caller-supplied
// X-Request-Id and mints distinct ids when the caller sends none.
func TestRequestIDHeader(t *testing.T) {
	_, base := startServer(t, kvcache.Config{Shards: 1, Sets: 16, Ways: 4}, Config{})

	req, _ := http.NewRequest(http.MethodGet, base+"/healthz", nil)
	req.Header.Set("X-Request-Id", "trace-abc-123")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-Id"); got != "trace-abc-123" {
		t.Fatalf("echoed id = %q", got)
	}

	seen := map[string]bool{}
	for i := 0; i < 3; i++ {
		resp, err := http.Get(base + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		id := resp.Header.Get("X-Request-Id")
		if !strings.HasPrefix(id, "r-") || seen[id] {
			t.Fatalf("generated id %q (seen=%v)", id, seen)
		}
		seen[id] = true
	}
}

// promCounterValue extracts one sample's value from an exposition page;
// ok is false if the exact series is absent.
func promCounterValue(page, series string) (float64, bool) {
	for _, line := range strings.Split(page, "\n") {
		if strings.HasPrefix(line, series+" ") {
			v, err := strconv.ParseFloat(strings.TrimPrefix(line, series+" "), 64)
			if err != nil {
				return 0, false
			}
			return v, true
		}
	}
	return 0, false
}

// TestMetricsScrapeDuringLoad is the e2e satellite: scrape /metrics
// repeatedly while the load generator hammers the server, asserting
// every page parses as valid exposition text and the request counters
// move monotonically between scrapes.
func TestMetricsScrapeDuringLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("e2e scrape test")
	}
	_, base := startServer(t, kvcache.Config{
		Policy: kvcache.PolicyPDP, Shards: 2, Sets: 16, Ways: 8,
		RecomputeEvery: 2048, Registry: telemetry.NewRegistry(),
	}, Config{})

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		loadgen.Run(context.Background(), loadgen.Config{
			BaseURL: base,
			Mix:     workload.ServiceConfig{Keys: 200, ZipfS: 0.8, ValueBytes: 32},
			Workers: 2,
			Ops:     8000,
			Seed:    11,
		})
	}()

	var lastGets float64 = -1
	for i := 0; i < 5; i++ {
		resp, err := http.Get(base + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("scrape %d: %s", i, resp.Status)
		}
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
			t.Fatalf("scrape %d Content-Type = %q", i, ct)
		}
		if err := telemetry.LintProm(bytes.NewReader(body)); err != nil {
			t.Fatalf("scrape %d invalid exposition: %v\n%s", i, err, body)
		}
		page := string(body)
		gets, ok := promCounterValue(page, "kv_gets")
		if !ok {
			t.Fatalf("scrape %d missing kv_gets:\n%s", i, page)
		}
		if gets < lastGets {
			t.Fatalf("kv_gets went backwards: %v -> %v", lastGets, gets)
		}
		lastGets = gets
		if !strings.Contains(page, `http_latency_ns_bucket{route="/kv/",le="`) {
			t.Fatalf("scrape %d missing per-route latency buckets", i)
		}
		if _, ok := promCounterValue(page, "kv_pd"); !ok {
			t.Fatalf("scrape %d missing kv_pd gauge", i)
		}
		time.Sleep(20 * time.Millisecond)
	}
	wg.Wait()

	// After load, the per-shard decision counters must be present too.
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), `kv_shard_evictions{`) {
		t.Fatalf("no per-shard eviction attribution in exposition:\n%s", body)
	}
}

// TestStatsRicherFields asserts the expanded /stats payload: per-route
// latency quantiles, per-shard stats with skew, the decision counts,
// and the live RDD view for a PDP cache.
func TestStatsRicherFields(t *testing.T) {
	_, base := startServer(t, kvcache.Config{
		Policy: kvcache.PolicyPDP, Shards: 2, Sets: 16, Ways: 4,
		RecomputeEvery: 1 << 30, Registry: telemetry.NewRegistry(),
	}, Config{})

	_, err := loadgen.Run(context.Background(), loadgen.Config{
		BaseURL: base,
		Mix:     workload.ServiceConfig{Keys: 100, ZipfS: 0.8, ValueBytes: 32},
		Workers: 1,
		Ops:     3000,
		Seed:    5,
	})
	if err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(base + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st struct {
		HitRate   float64 `json:"hit_rate"`
		LatencyUS map[string]struct {
			Count uint64  `json:"count"`
			Mean  float64 `json:"mean"`
			P50   float64 `json:"p50"`
			P99   float64 `json:"p99"`
		} `json:"latency_us"`
		Shards []struct {
			Shard   int     `json:"shard"`
			Gets    uint64  `json:"gets"`
			HitRate float64 `json:"hit_rate"`
		} `json:"shards"`
		ShardSkew *struct {
			TrafficSkew float64 `json:"traffic_skew"`
		} `json:"shard_skew"`
		RDD *struct {
			Total uint64 `json:"total"`
			SC    int    `json:"sc"`
		} `json:"rdd"`
		Decisions map[string]uint64 `json:"decisions"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	kv, ok := st.LatencyUS["/kv/"]
	if !ok || kv.Count == 0 || kv.P50 <= 0 || kv.P99 < kv.P50 {
		t.Fatalf("latency_us[/kv/] = %+v (present=%v)", kv, ok)
	}
	if len(st.Shards) != 2 {
		t.Fatalf("%d shard entries", len(st.Shards))
	}
	var gets uint64
	for _, sh := range st.Shards {
		gets += sh.Gets
	}
	if gets == 0 {
		t.Fatal("shard gets all zero after load")
	}
	if st.ShardSkew == nil || st.ShardSkew.TrafficSkew < 1 {
		t.Fatalf("shard_skew = %+v", st.ShardSkew)
	}
	if st.RDD == nil || st.RDD.Total == 0 || st.RDD.SC == 0 {
		t.Fatalf("rdd = %+v", st.RDD)
	}
	if st.Decisions == nil {
		t.Fatal("decisions map absent")
	}

	// shard_skew's hit-rate spread is the min and max over the shards in
	// whatever order they come: one shard alone, the better shard first,
	// the better shard last.
	for _, tc := range []struct{ shards, hot int }{{1, 0}, {2, 0}, {2, 1}} {
		srv, base := startServer(t, kvcache.Config{Shards: tc.shards, Sets: 16, Ways: 4}, Config{})
		// Miss on fresh keys until every shard has seen one, then hit the
		// hot shard's key: its hit rate is the only non-zero one.
		keys := make([]string, tc.shards)
		for i, found := 0, 0; found < tc.shards; i++ {
			k := "probe-" + strconv.Itoa(i)
			srv.cache.Get(k)
			for _, sh := range srv.cache.ShardStats() {
				if sh.Gets == 1 && keys[sh.Shard] == "" {
					keys[sh.Shard] = k
					found++
				}
			}
		}
		srv.cache.Put(keys[tc.hot], []byte("v"))
		srv.cache.Get(keys[tc.hot])
		resp, err := http.Get(base + "/stats")
		if err != nil {
			t.Fatal(err)
		}
		var got struct {
			Shards []struct {
				HitRate float64 `json:"hit_rate"`
			} `json:"shards"`
			ShardSkew struct {
				Min float64 `json:"hit_rate_min"`
				Max float64 `json:"hit_rate_max"`
			} `json:"shard_skew"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		lo, hi := got.Shards[0].HitRate, got.Shards[0].HitRate
		for _, sh := range got.Shards {
			lo, hi = min(lo, sh.HitRate), max(hi, sh.HitRate)
		}
		if hi == 0 || got.ShardSkew.Min != lo || got.ShardSkew.Max != hi {
			t.Errorf("shards=%d hot=%d: hit_rate_min/max = %v/%v, shards say %v/%v",
				tc.shards, tc.hot, got.ShardSkew.Min, got.ShardSkew.Max, lo, hi)
		}
	}
}

// TestDecisionsEndpoint drives enough conflicting traffic through a tiny
// PDP cache to populate the decision ring, then checks the export.
func TestDecisionsEndpoint(t *testing.T) {
	_, base := startServer(t, kvcache.Config{
		Policy: kvcache.PolicyPDP, Shards: 1, Sets: 4, Ways: 2,
		DefaultPD: 64, RecomputeEvery: 1 << 30,
	}, Config{})

	_, err := loadgen.Run(context.Background(), loadgen.Config{
		BaseURL: base,
		Mix:     workload.ServiceConfig{Keys: 64, ZipfS: 0.5, ValueBytes: 8},
		Workers: 1,
		Ops:     2000,
		Seed:    3,
	})
	if err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(base + "/debug/decisions?n=5")
	if err != nil {
		t.Fatal(err)
	}
	var dec struct {
		Total  uint64             `json:"total"`
		Counts map[string]uint64  `json:"counts"`
		Tail   []kvcache.Decision `json:"tail"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&dec); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if dec.Total == 0 {
		t.Fatal("no decisions after conflicting load")
	}
	if len(dec.Tail) == 0 || len(dec.Tail) > 5 {
		t.Fatalf("tail len %d with n=5", len(dec.Tail))
	}
	if _, ok := dec.Counts[kvcache.DecisionDeny]; !ok {
		t.Fatalf("counts missing deny kind: %v", dec.Counts)
	}
	var sum uint64
	for _, v := range dec.Counts {
		sum += v
	}
	if sum != dec.Total {
		t.Fatalf("kind counts sum %d != total %d", sum, dec.Total)
	}
	for i := 1; i < len(dec.Tail); i++ {
		if dec.Tail[i].Seq <= dec.Tail[i-1].Seq {
			t.Fatalf("tail not ordered: %+v", dec.Tail)
		}
	}

	// Malformed n is a client error.
	resp, err = http.Get(base + "/debug/decisions?n=banana")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad n: %s", resp.Status)
	}
}

// nopResponseWriter is the cheapest possible ResponseWriter, so the
// overhead benchmark measures the middleware, not the sink.
type nopResponseWriter struct{ h http.Header }

func (w nopResponseWriter) Header() http.Header         { return w.h }
func (w nopResponseWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w nopResponseWriter) WriteHeader(int)             {}

// TestMiddlewareOverheadBudget is the CI perf guard for the full
// instrumentation path (request id, status capture, latency observe,
// counter bump). The allocation half is deterministic and always asserted.
// The time half is relative: the instrumented handler is timed against a
// calibration handler doing only what any timing, id-minting middleware
// must (mint and set the id, copy the request around a context value,
// read the clock twice, one atomic add), the two interleaved in the same
// run so a loaded host slows both sides, and the instrumentation may cost
// at most overheadFactor times that floor. Skipped under the race
// detector, whose instrumentation dwarfs the budget.
func TestMiddlewareOverheadBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("perf budget is meaningless under -race")
	}
	if testing.Short() {
		t.Skip("perf guard")
	}
	const maxAllocs, overheadFactor = 7, 2.5
	cache, err := kvcache.New(kvcache.Config{Shards: 1, Sets: 4, Ways: 2})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(cache, Config{Addr: "127.0.0.1:0", Registry: telemetry.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	inner := func(http.ResponseWriter, *http.Request) {}
	var seq, spent atomic.Uint64
	floor := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := "r-" + strconv.FormatUint(seq.Add(1), 10)
		w.Header().Set("X-Request-Id", id)
		t0 := time.Now()
		inner(w, r.WithContext(context.WithValue(r.Context(), cluster.RequestIDKey, id)))
		spent.Add(uint64(time.Since(t0)))
	})
	req, _ := http.NewRequest(http.MethodGet, "http://x/bench", nil)
	w := nopResponseWriter{h: make(http.Header)}
	bench := func(h http.Handler) (float64, int64) {
		res := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				h.ServeHTTP(w, req)
			}
		})
		return float64(res.T.Nanoseconds()) / float64(res.N), res.AllocsPerOp()
	}

	// Best of three interleaved pairs: the guard polices the middleware,
	// not scheduler noise from whatever else the host is compiling.
	h := srv.instrument("/bench", inner)
	ratio, allocs := math.Inf(1), int64(0)
	for run := 0; run < 3 && ratio > overheadFactor; run++ {
		base, _ := bench(floor)
		perOp, a := bench(h)
		t.Logf("middleware %.0f ns/op, %d allocs/op; floor %.0f ns/op", perOp, a, base)
		ratio, allocs = math.Min(ratio, perOp/base), a
	}
	if allocs > maxAllocs {
		t.Fatalf("middleware allocates %d/op, budget %d", allocs, maxAllocs)
	}
	if ratio > overheadFactor {
		t.Fatalf("middleware costs %.1fx the floor, budget %.1fx", ratio, overheadFactor)
	}
}
