package loadgen

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"pdp/internal/workload"
)

// TestMultiTargetAttribution: a two-target run spreads traffic across
// both servers and attributes answers, hits and latency per target.
func TestMultiTargetAttribution(t *testing.T) {
	mk := func(hit bool) *httptest.Server {
		return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			switch r.Method {
			case http.MethodGet:
				if hit {
					w.Header().Set("X-Cache", "hit")
					w.Write([]byte("v"))
					return
				}
				w.Header().Set("X-Cache", "miss")
				http.Error(w, "not found", http.StatusNotFound)
			default:
				w.WriteHeader(http.StatusNoContent)
			}
		}))
	}
	hitSrv, missSrv := mk(true), mk(false)
	defer hitSrv.Close()
	defer missSrv.Close()

	res, err := Run(context.Background(), Config{
		Targets: []string{hitSrv.URL, missSrv.URL},
		Mix:     workload.ServiceConfig{Keys: 8, ValueBytes: 8},
		Workers: 2,
		Ops:     50,
		Seed:    1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerTarget) != 2 {
		t.Fatalf("per-target entries: %d, want 2", len(res.PerTarget))
	}
	ht, mt := res.PerTarget[hitSrv.URL], res.PerTarget[missSrv.URL]
	if ht == nil || mt == nil {
		t.Fatalf("missing per-target rows: %+v", res.PerTarget)
	}
	if ht.Answers == 0 || mt.Answers == 0 {
		t.Fatalf("traffic not spread: hit-target=%d miss-target=%d answers", ht.Answers, mt.Answers)
	}
	if ht.Misses != 0 || ht.HitRate != 1 {
		t.Fatalf("always-hit target: hits=%d misses=%d rate=%f", ht.Hits, ht.Misses, ht.HitRate)
	}
	if mt.Hits != 0 || mt.HitRate != 0 {
		t.Fatalf("always-miss target: hits=%d misses=%d rate=%f", mt.Hits, mt.Misses, mt.HitRate)
	}
	if ht.MeanLatencyUS <= 0 || mt.MeanLatencyUS <= 0 {
		t.Fatalf("per-target latency missing: %f / %f", ht.MeanLatencyUS, mt.MeanLatencyUS)
	}
}

// TestMultiTargetFailover: with one dead member in the target list,
// retryable failures rotate to the live one, so the run stays available
// and the dead target's errors are attributed to it.
func TestMultiTargetFailover(t *testing.T) {
	var served atomic.Int64
	live := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		served.Add(1)
		if r.Method == http.MethodGet {
			w.Header().Set("X-Cache", "hit")
			w.Write([]byte("v"))
			return
		}
		w.WriteHeader(http.StatusNoContent)
	}))
	defer live.Close()
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	deadURL := dead.URL
	dead.Close()

	res, err := Run(context.Background(), Config{
		Targets:     []string{deadURL, live.URL},
		Mix:         workload.ServiceConfig{Keys: 8, ValueBytes: 8},
		Workers:     1,
		Ops:         20,
		Seed:        1,
		RampRetries: 4,
		RetryBase:   time.Millisecond,
		RetryMax:    2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Worker 0 starts on the dead target, gets refused, rotates to the
	// live one, and stays there: every op completes.
	if res.Ops != 20 || res.Errors != 0 {
		t.Fatalf("ops=%d errors=%d; failover did not bridge the dead target", res.Ops, res.Errors)
	}
	if served.Load() == 0 {
		t.Fatal("live target served nothing")
	}
	if res.PerTarget[deadURL].Errors == 0 {
		t.Fatal("dead target's refused attempts not attributed")
	}
	if res.PerTarget[live.URL].Answers == 0 {
		t.Fatal("live target's answers not attributed")
	}
}

// TestRunLeavesCallerTargets: Run trims a target's trailing slash in its
// own copy of Targets, never in the caller's slice.
func TestRunLeavesCallerTargets(t *testing.T) {
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet {
			w.Header().Set("X-Cache", "hit")
			w.Write([]byte("v"))
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
	a, b := httptest.NewServer(h), httptest.NewServer(h)
	defer a.Close()
	defer b.Close()
	targets := []string{a.URL + "/", b.URL + "/"}
	res, err := Run(context.Background(), Config{
		Targets: targets,
		Mix:     workload.ServiceConfig{Keys: 8, ValueBytes: 8},
		Ops:     4,
		Seed:    1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if targets[0] != a.URL+"/" || targets[1] != b.URL+"/" {
		t.Fatalf("Run rewrote the caller's Targets: %q", targets)
	}
	if res.Ops != 4 || res.Errors != 0 {
		t.Fatalf("ops=%d errors=%d", res.Ops, res.Errors)
	}
}
