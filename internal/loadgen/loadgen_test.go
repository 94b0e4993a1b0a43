package loadgen

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"pdp/internal/telemetry"
	"pdp/internal/workload"
)

func TestConfigValidation(t *testing.T) {
	mix := workload.ServiceConfig{Keys: 10}
	bad := []Config{
		{Mix: mix}, // no BaseURL
		{BaseURL: "http://x", Mix: mix, Workers: -1},         // negative workers
		{BaseURL: "http://x", Mix: mix, Ops: -1},             // negative ops
		{BaseURL: "http://x", Mix: workload.ServiceConfig{}}, // invalid mix
	}
	for i, cfg := range bad {
		if _, err := Run(context.Background(), cfg); err == nil {
			t.Fatalf("config %d accepted: %+v", i, cfg)
		}
	}
}

func TestResultMath(t *testing.T) {
	r := Result{Ops: 1000, Hits: 300, Misses: 200, Duration: 2 * time.Second}
	if hr := r.HitRate(); hr != 0.6 {
		t.Fatalf("hit rate %.3f, want 0.6", hr)
	}
	if tp := r.Throughput(); tp != 500 {
		t.Fatalf("throughput %.1f, want 500", tp)
	}
	if (Result{}).HitRate() != 0 || (Result{}).Throughput() != 0 {
		t.Fatal("zero-value result must not divide by zero")
	}
}

// TestLatencyQuantilesReported runs against a stub server and asserts
// the Result carries an ordered latency digest — with and without a
// caller-supplied registry.
func TestLatencyQuantilesReported(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet {
			w.WriteHeader(http.StatusOK)
			w.Write([]byte("v"))
			return
		}
		w.WriteHeader(http.StatusNoContent)
	}))
	defer srv.Close()

	for _, reg := range []*telemetry.Registry{nil, telemetry.NewRegistry()} {
		res, err := Run(context.Background(), Config{
			BaseURL:  srv.URL,
			Mix:      workload.ServiceConfig{Keys: 20, ValueBytes: 8},
			Workers:  2,
			Ops:      200,
			Seed:     1,
			Registry: reg,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.P50LatencyUS <= 0 {
			t.Fatalf("registry=%v: p50 = %v", reg != nil, res.P50LatencyUS)
		}
		if res.P50LatencyUS > res.P90LatencyUS || res.P90LatencyUS > res.P99LatencyUS ||
			res.P99LatencyUS > res.P999LatencyUS {
			t.Fatalf("quantiles not monotone: %+v", res)
		}
		if reg != nil && reg.Histogram("loadgen.latency_ns").Count() == 0 {
			t.Fatal("registry histogram not fed")
		}
	}
}

func TestRunAgainstDeadServer(t *testing.T) {
	// No server on the port: transport errors are counted, not fatal. The
	// 1 ms backoff keeps the retries from spending seconds of wall time.
	res, err := Run(context.Background(), Config{
		BaseURL:   "http://127.0.0.1:1",
		Mix:       workload.ServiceConfig{Keys: 10},
		Workers:   2,
		Ops:       5,
		RetryBase: time.Millisecond,
		RetryMax:  time.Millisecond,
	})
	if err != nil {
		t.Fatalf("transport failure escalated: %v", err)
	}
	if res.Errors == 0 {
		t.Fatal("no errors recorded against a dead server")
	}
}

// TestAllShedResultJSON is the divide-by-zero regression test for the
// client math: a run where every request is shed records zero hits,
// zero misses and zero completed ops, and the JSON report must still be
// valid — finite hit_rate, availability and throughput_ops_s — instead
// of a NaN that encoding/json refuses to serialize.
func TestAllShedResultJSON(t *testing.T) {
	shedder := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer shedder.Close()

	res, err := Run(context.Background(), Config{
		BaseURL: shedder.URL,
		Mix:     workload.ServiceConfig{Keys: 16, ZipfS: 0.8, ValueBytes: 8},
		Workers: 2,
		Ops:     20,
		Seed:    7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sheds == 0 {
		t.Fatal("all-503 server recorded no sheds")
	}
	if res.Hits+res.Misses != 0 {
		t.Fatalf("all-shed run recorded %d definitive GET answers", res.Hits+res.Misses)
	}

	assertFiniteJSON(t, res)
	assertFiniteJSON(t, Result{})                       // zero-op run
	assertFiniteJSON(t, Result{Duration: -time.Second}) // clock went backwards
	assertFiniteJSON(t, Result{Ops: 1, Duration: 0})    // 1/0 throughput
}

// assertFiniteJSON marshals a Result and verifies the derived ratio
// fields exist and are finite numbers.
func assertFiniteJSON(t *testing.T, r Result) {
	t.Helper()
	out, err := json.Marshal(r)
	if err != nil {
		t.Fatalf("Result %+v does not marshal: %v", r, err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(out, &decoded); err != nil {
		t.Fatalf("report is not valid JSON: %v\n%s", err, out)
	}
	for _, field := range []string{"hit_rate", "availability", "throughput_ops_s"} {
		v, ok := decoded[field].(float64)
		if !ok {
			t.Fatalf("report missing derived field %q:\n%s", field, out)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("%s = %v is not finite", field, v)
		}
	}
}
