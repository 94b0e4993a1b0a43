package kvserver

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
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

// statsDoc is the /stats document. Metrics decode with json.Number, so a
// counter keeps its exact text; a histogram decodes as an object.
type statsDoc struct {
	Policy  string           `json:"policy"`
	Metrics map[string]any   `json:"metrics"`
	RDD     *kvcache.RDDView `json:"rdd"`
}

func decodeStats(t *testing.T, r io.Reader) statsDoc {
	t.Helper()
	dec := json.NewDecoder(r)
	dec.UseNumber()
	var d statsDoc
	if err := dec.Decode(&d); err != nil {
		t.Fatal(err)
	}
	return d
}

func getStats(t *testing.T, base string) statsDoc {
	t.Helper()
	resp, err := http.Get(base + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	return decodeStats(t, resp.Body)
}

// num reads a counter or gauge series, or one field of a histogram entry
// (0 when absent).
func (d statsDoc) num(name string, field ...string) float64 {
	v := d.Metrics[name]
	if h, ok := v.(map[string]any); ok && len(field) == 1 {
		v = h[field[0]]
	}
	n, _ := v.(json.Number)
	f, _ := n.Float64()
	return f
}

// TestStatsRicherFields asserts that /stats carries what an operator
// reads first: per-route latency quantiles, per-shard traffic with its
// skew summary, the decision counters, and the live RDD for a PDP cache.
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

	st := getStats(t, base)
	kv := `http.latency_ns{route="/kv/"}`
	if st.num(kv, "count") == 0 || st.num(kv, "p50") <= 0 || st.num(kv, "p99") < st.num(kv, "p50") {
		t.Fatalf("%s = %v", kv, st.Metrics[kv])
	}
	if gets := st.num(`kv.shard.gets{shard="0"}`) + st.num(`kv.shard.gets{shard="1"}`); gets == 0 {
		t.Fatal("shard gets all zero after load")
	}
	if st.num("kv.skew.traffic") < 1 {
		t.Fatalf("kv.skew.traffic = %v", st.Metrics["kv.skew.traffic"])
	}
	if st.RDD == nil || st.RDD.Total == 0 || st.RDD.SC == 0 || st.num("kv.rdd_total") != float64(st.RDD.Total) {
		t.Fatalf("rdd = %+v, kv.rdd_total = %v", st.RDD, st.Metrics["kv.rdd_total"])
	}
	for _, name := range []string{"kv.evictions", "kv.denies", "kv.saves"} {
		if _, ok := st.Metrics[name]; !ok {
			t.Fatalf("decision counter %s absent", name)
		}
	}

	// The hit-rate spread is the min and max over the shards in whatever
	// order they come: one shard alone, the better shard first, the better
	// shard last.
	for _, tc := range []struct{ shards, hot int }{{1, 0}, {2, 0}, {2, 1}} {
		srv, base := startServer(t, kvcache.Config{Shards: tc.shards, Sets: 16, Ways: 4,
			Registry: telemetry.NewRegistry()}, Config{})
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
		got := getStats(t, base)
		lo, hi := 1.0, 0.0
		for i := range tc.shards {
			shard := `{shard="` + strconv.Itoa(i) + `"}`
			hr := got.num("kv.shard.hits"+shard) / got.num("kv.shard.gets"+shard)
			lo, hi = min(lo, hr), max(hi, hr)
		}
		if hi == 0 || got.num("kv.skew.hit_rate_min") != lo || got.num("kv.skew.hit_rate_max") != hi {
			t.Errorf("shards=%d hot=%d: hit_rate_min/max = %v/%v, shards say %v/%v",
				tc.shards, tc.hot, got.Metrics["kv.skew.hit_rate_min"], got.Metrics["kv.skew.hit_rate_max"], lo, hi)
		}
	}
}

// promSample maps a registry name onto its /metrics sample name, with
// extra labels appended to its label block.
func promSample(name, suffix string, extra ...string) string {
	base, labels, _ := strings.Cut(name, "{")
	labels = strings.TrimSuffix(labels, "}")
	for _, l := range extra {
		if labels != "" {
			labels += ","
		}
		labels += l
	}
	out := strings.ReplaceAll(base, ".", "_") + suffix
	if labels != "" {
		out += "{" + labels + "}"
	}
	return out
}

// TestStatsMirrorsMetrics pins /stats and /metrics as two encodings of one
// Snapshot. On a quiesced PDP server with two shards, a gate and both
// request paths served, every sample of the lint-clean /metrics page
// equals the /stats value under the same registry name (a histogram's
// _count, _sum and cumulative buckets its count, sum and log2 buckets),
// every /stats series appears on /metrics, and every fact the hand-built
// /stats schema used to carry is among them.
func TestStatsMirrorsMetrics(t *testing.T) {
	srv, base := startServer(t, kvcache.Config{
		Policy: kvcache.PolicyPDP, Shards: 2, Sets: 16, Ways: 4,
		RecomputeEvery: 1024, Registry: telemetry.NewRegistry(),
	}, Config{MaxInflight: 4})
	if _, err := loadgen.Run(context.Background(), loadgen.Config{
		BaseURL: base,
		Mix:     workload.ServiceConfig{Keys: 100, ZipfS: 0.8, ValueBytes: 32},
		Workers: 2,
		Ops:     3000,
		Seed:    5,
	}); err != nil {
		t.Fatal(err)
	}
	if status, _ := postBatch(t, base, []wireOp{{Op: "put", Key: "b", Value: []byte("v")}, {Op: "get", Key: "b"}}); status != http.StatusOK {
		t.Fatalf("batch status %d", status)
	}

	// Both encodings come straight from their handlers: through the
	// middleware, each scrape would book itself into the next one's
	// request counters.
	read := func(h http.HandlerFunc) []byte {
		rec := httptest.NewRecorder()
		h(rec, httptest.NewRequest(http.MethodGet, "/", nil))
		return rec.Body.Bytes()
	}
	page := read(srv.handleMetrics)
	if err := telemetry.LintProm(bytes.NewReader(page)); err != nil {
		t.Fatalf("/metrics fails lint: %v\n%s", err, page)
	}
	doc := decodeStats(t, bytes.NewReader(read(srv.handleStats)))

	want := map[string]string{}
	for name, v := range doc.Metrics {
		switch v := v.(type) {
		case json.Number:
			want[promSample(name, "")] = v.String()
		case map[string]any:
			var cum uint64
			buckets, _ := v["log2_buckets"].([]any) // null while empty
			for k, c := range buckets {
				n, _ := strconv.ParseUint(c.(json.Number).String(), 10, 64)
				cum += n
				le := strconv.FormatUint(uint64(1)<<k-1, 10)
				want[promSample(name, "_bucket", `le="`+le+`"`)] = strconv.FormatUint(cum, 10)
			}
			want[promSample(name, "_bucket", `le="+Inf"`)] = strconv.FormatUint(cum, 10)
			want[promSample(name, "_sum")] = v["sum"].(json.Number).String()
			want[promSample(name, "_count")] = v["count"].(json.Number).String()
		default:
			t.Errorf("/stats %s: unexpected value %T", name, v)
		}
	}
	got := map[string]string{}
	for _, line := range strings.Split(string(page), "\n") {
		if sample, value, ok := strings.Cut(line, " "); ok && !strings.HasPrefix(line, "#") {
			got[sample] = value
		}
	}
	for sample, g := range got {
		w, ok := want[sample]
		gf, _ := strconv.ParseFloat(g, 64)
		wf, _ := strconv.ParseFloat(w, 64)
		if !ok || gf != wf {
			t.Errorf("/metrics %s = %s, /stats says %q (present=%v)", sample, g, w, ok)
		}
	}
	for sample := range want {
		if _, ok := got[sample]; !ok {
			t.Errorf("/stats series %s missing from /metrics", sample)
		}
	}

	// Every fact the old hand-built schema carried is a series.
	required := []string{
		`http.latency_ns{route="/kv/"}`, `http.latency_ns{route="/batch"}`,
		"kv.gets", "kv.hits", "kv.misses", "kv.puts", "kv.deletes", "kv.inserts",
		"kv.evictions", "kv.denies", "kv.saves", "kv.entries", "kv.bytes", "kv.pd",
		"kv.recomputes", "kv.sampler_accesses", "kv.sampler_hits", "kv.hit_rate",
		"kv.degraded_shards", "kv.degraded_ops", "kv.breaker_trips", "kv.breaker_rearms",
		"kv.lock_hold_warns",
		"kv.skew.occupancy", "kv.skew.traffic", "kv.skew.hit_rate_min", "kv.skew.hit_rate_max",
		"http.gate_in_flight", "http.gate_max_inflight",
		"http.batches", "http.batch_ops", "http.batch_size", "http.batch_op_latency_ns",
		"kv.rdd_total", "kv.rdd_reuses", `kv.rdd{d="4"}`,
	}
	for _, shard := range []string{"0", "1"} {
		for _, f := range []string{"gets", "hits", "entries", "bytes", "denies", "saves"} {
			required = append(required, `kv.shard.`+f+`{shard="`+shard+`"}`)
		}
		for _, class := range []string{"unprotected", "forced"} {
			required = append(required, `kv.shard.evictions{shard="`+shard+`",class="`+class+`"}`)
		}
	}
	for _, name := range required {
		if _, ok := doc.Metrics[name]; !ok {
			t.Errorf("/stats lacks %s", name)
		}
	}
	kv := `http.latency_ns{route="/kv/"}`
	for _, q := range []string{"p50", "p90", "p99", "p999"} {
		if doc.num(kv, q) <= 0 {
			t.Errorf("%s %s = %v", kv, q, doc.num(kv, q))
		}
	}
	if doc.num("kv.gets") == 0 || doc.num("http.batches") != 1 || doc.num("http.gate_max_inflight") != 4 ||
		doc.num("kv.recomputes") == 0 || doc.num("kv.sampler_accesses") == 0 || doc.RDD == nil {
		t.Errorf("implausible snapshot after load: %v", doc.Metrics)
	}
}

// TestDecisionsEndpoint drives enough conflicting traffic through a tiny
// PDP cache to populate the decision ring, then checks the export against
// the registry's decision counters.
func TestDecisionsEndpoint(t *testing.T) {
	_, base := startServer(t, kvcache.Config{
		Policy: kvcache.PolicyPDP, Shards: 1, Sets: 4, Ways: 2,
		DefaultPD: 64, RecomputeEvery: 1 << 30, Registry: telemetry.NewRegistry(),
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
		Total uint64             `json:"total"`
		Tail  []kvcache.Decision `json:"tail"`
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
	// Every decision is an eviction, a deny or a save, and the registry
	// counts each kind once.
	st := getStats(t, base)
	if sum := st.num("kv.evictions") + st.num("kv.denies") + st.num("kv.saves"); sum != float64(dec.Total) {
		t.Fatalf("kv.evictions+denies+saves = %v, decision total %d", sum, dec.Total)
	}
	for i := 1; i < len(dec.Tail); i++ {
		if d, prev := dec.Tail[i], dec.Tail[i-1]; d.Shard == prev.Shard && d.Seq <= prev.Seq {
			t.Fatalf("tail not ordered within shard %d: %+v", d.Shard, dec.Tail)
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
