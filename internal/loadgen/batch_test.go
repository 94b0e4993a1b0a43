package loadgen

import (
	"context"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pdp/internal/workload"
)

// batchWireOp and batchWireResult are the /batch rows as encoding/json
// sees them: the stub reads and answers with it, independently of batchwire.
type batchWireOp struct {
	Op    string `json:"op"`
	Key   string `json:"key"`
	Value []byte `json:"value,omitempty"`
}

type batchWireResult struct {
	Status string `json:"status"`
	Value  []byte `json:"value,omitempty"`
	Node   string `json:"node,omitempty"`
	Error  string `json:"error,omitempty"`
}

// batchStub is an in-memory /batch endpoint with the server's wire
// vocabulary, so accounting tests control every row exactly.
type batchStub struct {
	mu    sync.Mutex
	store map[string][]byte

	batches atomic.Uint64 // POST /batch requests served
	maxOps  atomic.Int64  // largest batch seen
}

func newBatchStub() *batchStub {
	return &batchStub{store: make(map[string][]byte)}
}

func (s *batchStub) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	var ops []batchWireOp
	if err := json.NewDecoder(r.Body).Decode(&ops); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	s.batches.Add(1)
	if n := int64(len(ops)); n > s.maxOps.Load() {
		s.maxOps.Store(n)
	}
	rows := make([]batchWireResult, len(ops))
	s.mu.Lock()
	for i, op := range ops {
		switch op.Op {
		case "get":
			if v, ok := s.store[op.Key]; ok {
				rows[i] = batchWireResult{Status: "hit", Value: v}
			} else {
				rows[i] = batchWireResult{Status: "miss"}
			}
		case "put":
			s.store[op.Key] = append([]byte(nil), op.Value...)
			rows[i] = batchWireResult{Status: "stored"}
		case "delete":
			if _, ok := s.store[op.Key]; ok {
				delete(s.store, op.Key)
				rows[i] = batchWireResult{Status: "deleted"}
			} else {
				rows[i] = batchWireResult{Status: "not_found"}
			}
		default:
			rows[i] = batchWireResult{Status: "error", Error: "unknown op"}
		}
	}
	s.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(rows)
}

// TestBatchAccounting drives the batched client against the stub and
// checks that per-op accounting survives batching: every op books a
// definitive outcome, misses are filled cache-aside (so repeat GETs
// hit), the final short batch flushes, and amortized latency quantiles
// are reported.
func TestBatchAccounting(t *testing.T) {
	stub := newBatchStub()
	srv := httptest.NewServer(stub)
	defer srv.Close()

	const workers, ops, batchN = 2, 100, 8
	res, err := Run(context.Background(), Config{
		BaseURL: srv.URL,
		Mix:     workload.ServiceConfig{Keys: 16, ZipfS: 0.8, ValueBytes: 32, PutFrac: 0.1, DeleteFrac: 0.05},
		Workers: workers,
		Ops:     ops,
		Batch:   batchN,
		Seed:    3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops != workers*ops {
		t.Fatalf("ops=%d, want %d: batching dropped or double-counted operations", res.Ops, workers*ops)
	}
	if res.Errors != 0 || res.Sheds != 0 {
		t.Fatalf("errors=%d sheds=%d against a healthy stub", res.Errors, res.Sheds)
	}
	if res.Misses == 0 {
		t.Fatal("cold store produced no misses")
	}
	if res.Hits == 0 {
		t.Fatal("no hits: cache-aside fills did not reach the store")
	}
	if res.P50LatencyUS <= 0 || res.P99LatencyUS < res.P50LatencyUS {
		t.Fatalf("amortized latency quantiles broken: p50=%v p99=%v", res.P50LatencyUS, res.P99LatencyUS)
	}
	// 100 ops at batch 8 = 12 full batches + 1 flush of 4 per worker,
	// plus fill batches for the misses.
	if got, min := stub.batches.Load(), uint64(workers*13); got < min {
		t.Fatalf("stub served %d batches, want >= %d", got, min)
	}
	if max := stub.maxOps.Load(); max > batchN {
		t.Fatalf("a batch carried %d ops, over the configured %d", max, batchN)
	}
}

// TestBatchWholeBatchShed: a whole-batch 503 retries under the regular
// budget — per batch, not per op — and, once exhausted, books one shed
// per op carried. Orderly sheds stay out of Errors and availability.
func TestBatchWholeBatchShed(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "1")
		http.Error(w, "overloaded", http.StatusServiceUnavailable)
	}))
	defer srv.Close()

	res, err := Run(context.Background(), Config{
		BaseURL:   srv.URL,
		Mix:       getOnlyMix,
		Workers:   1,
		Ops:       4,
		Batch:     4,
		Seed:      1,
		Retries:   2,
		RetryBase: time.Millisecond,
		RetryMax:  2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sheds != 4 || res.Ops != 0 {
		t.Fatalf("sheds=%d ops=%d, want 4/0: a shed batch books one shed per op", res.Sheds, res.Ops)
	}
	if res.Retries != 2 {
		t.Fatalf("retries=%d, want 2: batch retries are per batch, not per op", res.Retries)
	}
	if res.Errors != 0 || res.Availability() != 1 {
		t.Fatalf("errors=%d availability=%f; sheds are orderly answers", res.Errors, res.Availability())
	}
}

// TestBatchRowShed: a row-level shed (one op's owner refused its
// sub-batch) books a shed for that op alone; the batch's other rows keep
// their definitive outcomes and nothing is retried.
func TestBatchRowShed(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var ops []batchWireOp
		if err := json.NewDecoder(r.Body).Decode(&ops); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		rows := make([]batchWireResult, len(ops))
		for i := range ops {
			if i == 0 {
				rows[i] = batchWireResult{Status: "shed"}
			} else {
				rows[i] = batchWireResult{Status: "hit", Value: []byte("v")}
			}
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(rows)
	}))
	defer srv.Close()

	res, err := Run(context.Background(), Config{
		BaseURL: srv.URL,
		Mix:     getOnlyMix,
		Workers: 1,
		Ops:     4,
		Batch:   4,
		Seed:    1,
		Retries: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sheds != 1 || res.Hits != 3 || res.Ops != 3 {
		t.Fatalf("sheds=%d hits=%d ops=%d, want 1/3/3", res.Sheds, res.Hits, res.Ops)
	}
	if res.Retries != 0 {
		t.Fatalf("retries=%d; a partially-shed 200 answer is not retryable", res.Retries)
	}
}

// TestConnectionReuse is the transport-tuning regression test: with the
// pool sized to the worker count, a run's connection count stays at the
// steady-state need (one per worker, plus dial races) instead of
// churning a fresh TCP connection per request — which is what the
// default transport's 2-idle-conns-per-host cap produces at 4+ workers.
func TestConnectionReuse(t *testing.T) {
	var newConns atomic.Int64
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet {
			w.Write([]byte("v"))
			return
		}
		w.WriteHeader(http.StatusNoContent)
	}))
	srv.Config.ConnState = func(c net.Conn, s http.ConnState) {
		if s == http.StateNew {
			newConns.Add(1)
		}
	}
	srv.Start()
	defer srv.Close()

	const workers, ops = 4, 200
	res, err := Run(context.Background(), Config{
		BaseURL: srv.URL,
		Mix:     workload.ServiceConfig{Keys: 16, ValueBytes: 16, PutFrac: 0.2},
		Workers: workers,
		Ops:     ops,
		Seed:    5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 {
		t.Fatalf("errors=%d against a healthy stub", res.Errors)
	}
	// workers*ops requests: with keep-alive reuse the server should see
	// about one connection per worker. Allow 2x for dial races; the
	// regression (no pooling past 2 idle conns) produces hundreds.
	if got := newConns.Load(); got > 2*workers {
		t.Fatalf("server saw %d new connections for %d requests from %d workers; transport is not reusing connections",
			got, workers*ops, workers)
	}
}
