package kvserver

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"pdp/internal/cluster"
	"pdp/internal/kvcache"
	"pdp/internal/telemetry"
	"pdp/internal/trace"
)

// TestKVHandlerAllocBudget pins what /kv/ itself allocates per request now
// that it runs through the batch scratch: no more than the per-op handler
// it replaced (2 for a GET hit — the X-Cache and Content-Type header values
// — 0 for a 256 B PUT, 4 for a miss: X-Cache and http.Error's three).
func TestKVHandlerAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	cache, err := kvcache.New(kvcache.Config{Shards: 4, Sets: 64, Ways: 8})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(cache, Config{Registry: telemetry.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	val := bytes.Repeat([]byte{7}, 256)
	cache.Put("present", val)
	w := nopResponseWriter{h: make(http.Header)}
	rd := &reader{}
	get, _ := http.NewRequest(http.MethodGet, "/kv/present", nil)
	miss, _ := http.NewRequest(http.MethodGet, "/kv/absent", nil)
	put, _ := http.NewRequest(http.MethodPut, "/kv/present", rd)
	for _, tc := range []struct {
		name   string
		req    *http.Request
		budget float64
	}{{"GET hit", get, 2}, {"GET miss", miss, 4}, {"PUT 256 B", put, 0}} {
		best := 1e9
		for try := 0; try < 3; try++ {
			best = min(best, testing.AllocsPerRun(500, func() {
				rd.Reset(val)
				srv.routeKV(w, tc.req)
			}))
		}
		t.Logf("/kv/ %s: %.1f allocs per request", tc.name, best)
		if best > tc.budget {
			t.Errorf("/kv/ %s allocates %.1f per request, budget %.0f", tc.name, best, tc.budget)
		}
	}
}

// TestKVForwardShedContract: a /kv/ request whose owner's gate sheds the
// forward is a shed like any other — 503 with Retry-After — and the same
// key in a /batch is a "shed" row naming the owner.
func TestKVForwardShedContract(t *testing.T) {
	nodes := startBatchCluster(t, 2, func(i int, scfg *Config) {
		if i == 1 {
			scfg.MaxInflight = 1
		}
	})
	key := ownedKeys(nodes, 1)[1][0]

	// Hold the owner's only gate slot with a PUT whose body never arrives
	// (the TestBatchPartialFailureShed technique).
	pr, pw := io.Pipe()
	defer pw.Close()
	req, _ := http.NewRequest(http.MethodPut, nodes[1].base+"/kv/stall", pr)
	req.ContentLength = -1
	stalled := make(chan struct{})
	go func() {
		defer close(stalled)
		if resp, err := http.DefaultClient.Do(req); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	for deadline := time.Now().Add(5 * time.Second); nodes[1].srv.gate.InFlight() != 1; {
		if time.Now().After(deadline) {
			t.Fatalf("gate never saturated: inflight %d", nodes[1].srv.gate.InFlight())
		}
		time.Sleep(2 * time.Millisecond)
	}

	resp, err := http.Get(nodes[0].base + "/kv/" + key)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Errorf("/kv/ GET through a shedding owner: %s, Retry-After=%q; want 503 with the hint",
			resp.Status, resp.Header.Get("Retry-After"))
	}
	if got := resp.Header.Get("X-Cluster-Owner"); got != nodes[1].base {
		t.Errorf("X-Cluster-Owner=%q, want the shedding owner %q", got, nodes[1].base)
	}
	status, out := postBatch(t, nodes[0].base, []wireOp{{Op: "get", Key: key}})
	if status != http.StatusOK || out[0].Status != "shed" || out[0].Node != nodes[1].base {
		t.Errorf("/batch of the same key: %d %+v, want one shed row naming %s", status, out, nodes[1].base)
	}

	pw.CloseWithError(io.ErrUnexpectedEOF)
	<-stalled
}

// startWithFakePeer boots one real node whose only peer is an httptest
// server running h (never probed: the test stays inside the pre-ejection
// window), and returns the node and a key the fake owns.
func startWithFakePeer(t *testing.T, h http.HandlerFunc) (*clusterNode, string) {
	t.Helper()
	fake := httptest.NewServer(h)
	t.Cleanup(fake.Close)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	self := "http://" + ln.Addr().String()
	reg := telemetry.NewRegistry()
	cache, err := kvcache.New(kvcache.Config{Shards: 2, Sets: 64, Ways: 4, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	cl, err := cluster.New(cluster.Config{
		Self: self, Peers: []string{self, fake.URL},
		ProbeEvery: time.Hour, FetchTimeout: 500 * time.Millisecond, Registry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(cache, Config{Addr: self, Listener: ln, Cluster: cl, Registry: reg})
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
	for i := 0; ; i++ {
		key := fmt.Sprintf("fake-%d", i)
		if o, _ := cl.Ring().Owner(key); o == fake.URL {
			return &clusterNode{cache: cache, srv: srv, base: self}, key
		}
	}
}

// TestPeerFailureRule is the one peer-failure rule, route by route: whatever
// a misbehaving owner does short of an orderly answer or a shed, /kv/ GET,
// /kv/ PUT and a one-op /batch all fall back to local execution — the same
// answers in every column, fallback_local up by one per request.
func TestPeerFailureRule(t *testing.T) {
	faults := []struct {
		name string
		h    http.HandlerFunc
	}{
		{"500", func(w http.ResponseWriter, r *http.Request) { http.Error(w, "boom", http.StatusInternalServerError) }},
		{"504", func(w http.ResponseWriter, r *http.Request) { http.Error(w, "late", http.StatusGatewayTimeout) }},
		{"404", func(w http.ResponseWriter, r *http.Request) { http.NotFound(w, r) }},
		{"200 + garbage", func(w http.ResponseWriter, r *http.Request) { io.WriteString(w, `[{"status":"hit"`) }},
		{"200 + no rows", func(w http.ResponseWriter, r *http.Request) { io.WriteString(w, `[]`) }},
		{"dropped connection", func(w http.ResponseWriter, r *http.Request) {
			conn, _, _ := w.(http.Hijacker).Hijack()
			conn.Close()
		}},
	}
	for _, f := range faults {
		t.Run(f.name, func(t *testing.T) {
			var mu sync.Mutex
			var paths []string
			nd, key := startWithFakePeer(t, func(w http.ResponseWriter, r *http.Request) {
				mu.Lock()
				paths = append(paths, r.Method+" "+r.URL.Path)
				mu.Unlock()
				io.Copy(io.Discard, r.Body)
				f.h(w, r)
			})
			fallbacks := func() uint64 { return nd.srv.cfg.Cluster.StatsView("").FallbackLocal }

			before := fallbacks()
			req, _ := http.NewRequest(http.MethodPut, nd.base+"/kv/"+key, strings.NewReader("local-copy"))
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusNoContent || fallbacks() != before+1 {
				t.Errorf("/kv/ PUT: %s, fallback_local +%d; want 204 stored locally, +1", resp.Status, fallbacks()-before)
			}

			before = fallbacks()
			resp, err = http.Get(nd.base + "/kv/" + key)
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK || string(body) != "local-copy" || fallbacks() != before+1 {
				t.Errorf("/kv/ GET: %s %q, fallback_local +%d; want the local copy, +1", resp.Status, body, fallbacks()-before)
			}

			before = fallbacks()
			status, out := postBatch(t, nd.base, []wireOp{{Op: "get", Key: key}})
			if status != http.StatusOK || out[0].Status != "hit" || string(out[0].Value) != "local-copy" ||
				out[0].Node != nd.base || fallbacks() != before+1 {
				t.Errorf("one-op /batch: %d %+v, fallback_local +%d; want a local hit, +1", status, out, fallbacks()-before)
			}

			// Every request did try its owner first, and only ever on /batch.
			mu.Lock()
			defer mu.Unlock()
			if want := []string{"POST /batch", "POST /batch", "POST /batch"}; !reflect.DeepEqual(paths, want) {
				t.Errorf("the owner saw %q, want %q", paths, want)
			}
		})
	}
}

// TestRequestIDCrossesPeerHop: the client's X-Request-Id reaches the owner
// on a forwarded /kv/ GET (through the fill table), a forwarded /kv/ PUT and
// a forwarded sub-batch — what the owner echoes and attributes its shed and
// serve_error journal records to.
func TestRequestIDCrossesPeerHop(t *testing.T) {
	var mu sync.Mutex
	var ids []string
	nd, key := startWithFakePeer(t, func(w http.ResponseWriter, r *http.Request) {
		var ops []wireOp
		if err := json.NewDecoder(r.Body).Decode(&ops); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		mu.Lock()
		ids = append(ids, r.Header.Get("X-Request-Id"))
		mu.Unlock()
		json.NewEncoder(w).Encode(make([]wireResult, len(ops))) // status "" rows: well-formed, which is all the hop checks
	})
	for _, c := range []struct{ method, path, body, id string }{
		{http.MethodGet, "/kv/" + key, "", "trace-get"},
		{http.MethodPut, "/kv/" + key, "v", "trace-put"},
		{http.MethodPost, "/batch", `[{"op":"get","key":"` + key + `"},{"op":"get","key":"` + key + `"}]`, "trace-batch"},
	} {
		req, _ := http.NewRequest(c.method, nd.base+c.path, strings.NewReader(c.body))
		req.Header.Set("X-Request-Id", c.id)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if got := resp.Header.Get("X-Request-Id"); got != c.id {
			t.Errorf("%s %s: first node echoed %q, want %q", c.method, c.path, got, c.id)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if want := []string{"trace-get", "trace-put", "trace-batch"}; !reflect.DeepEqual(ids, want) {
		t.Errorf("the owner saw request ids %q, want %q", ids, want)
	}
}

// kvAnswers is the /kv/ HTTP vocabulary as the row a one-op /batch would
// carry (DESIGN.md §8). The rows with a why are the named exceptions of
// TestKVEqualsBatch: the two routes agree on the outcome and on the cache,
// but /kv/ refuses the request before an op exists.
var kvAnswers = []struct {
	method, xcache string
	code           int
	row, why       string
}{
	{http.MethodGet, "hit", http.StatusOK, "hit", ""},
	{http.MethodGet, "miss", http.StatusNotFound, "miss", ""},
	{http.MethodPut, "", http.StatusNoContent, "stored", ""},
	{http.MethodPut, "deny", http.StatusNoContent, "denied", ""},
	{http.MethodDelete, "", http.StatusNoContent, "deleted", ""},
	{http.MethodDelete, "", http.StatusNotFound, "not_found", ""},
	{http.MethodPut, "", http.StatusRequestEntityTooLarge, "too_large",
		"an oversized /kv/ body is a 413 for the request; in a batch it is one row's too_large"},
	{http.MethodGet, "", http.StatusBadRequest, "error",
		"an empty key is a 400 for the request; in a batch it is one row's error"},
}

// TestKVEqualsBatch is ROADMAP's "a batch must mean exactly what its ops
// mean one at a time", end to end: one seeded op stream goes to one server
// as /batch requests of 32 and to an identically configured one as /kv/
// requests, through the whole handler stack. Every op must get the same
// outcome and the same value bytes, and the two caches must end with the
// same ledger, shard by shard, sampler counters included.
func TestKVEqualsBatch(t *testing.T) {
	const nOps, window, maxValue, nKeys = 20000, 32, 64, 160
	for _, ccfg := range []kvcache.Config{
		{Policy: kvcache.PolicyPDP, Shards: 1},
		{Policy: kvcache.PolicyPDP, Shards: 4},
		{Policy: kvcache.PolicyLRU, Shards: 1},
		{Policy: kvcache.PolicyLRU, Shards: 4},
	} {
		// A static PD (no recompute inside the stream): across shards a batch
		// is unordered, so the two caches agree shard by shard, not on when
		// a cache-wide recompute would have fired.
		ccfg.Sets, ccfg.Ways, ccfg.DefaultPD, ccfg.RecomputeEvery = 8, 4, 24, 1<<40
		t.Run(fmt.Sprintf("%s-%d", ccfg.Policy, ccfg.Shards), func(t *testing.T) {
			var caches [2]*kvcache.Cache
			var handlers [2]http.Handler
			for i := range caches {
				cache, err := kvcache.New(ccfg)
				if err != nil {
					t.Fatal(err)
				}
				srv, err := New(cache, Config{MaxValueBytes: maxValue, Registry: telemetry.NewRegistry()})
				if err != nil {
					t.Fatal(err)
				}
				caches[i], handlers[i] = cache, srv.httpSrv.Handler
			}
			serve := func(h http.Handler, method, path string, body []byte) *httptest.ResponseRecorder {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
				return rec
			}

			// The stream: duplicate keys throughout, and planted in every
			// window a PUT→GET and a PUT→DELETE→GET of one key, now and then
			// an oversized value and an empty key.
			rng := trace.NewRNG(21)
			methods := map[string]string{"get": http.MethodGet, "put": http.MethodPut, "delete": http.MethodDelete}
			seen := make([]int, len(kvAnswers))
			for done := 0; done < nOps; done += window {
				ops := make([]wireOp, window)
				for i := range ops {
					ops[i] = wireOp{Op: "get", Key: fmt.Sprintf("k%d", rng.Intn(nKeys))}
					switch p := rng.Intn(100); {
					case p < 35:
						ops[i].Op, ops[i].Value = "put", bytes.Repeat([]byte{byte(rng.Intn(256))}, rng.Intn(maxValue+1))
					case p < 45:
						ops[i].Op = "delete"
					}
				}
				// The planted keys recur across windows but share none with the
				// random ops, so what each GET must see is known.
				a, b := fmt.Sprintf("a%d", rng.Intn(nKeys)), fmt.Sprintf("b%d", rng.Intn(nKeys))
				ops[3], ops[9] = wireOp{Op: "put", Key: a, Value: []byte("read-back")}, wireOp{Op: "get", Key: a}
				ops[14], ops[20], ops[27] = wireOp{Op: "put", Key: b, Value: []byte("gone")}, wireOp{Op: "delete", Key: b}, wireOp{Op: "get", Key: b}
				if done/window%5 == 0 {
					ops[30] = wireOp{Op: "put", Key: a, Value: make([]byte, maxValue+1+rng.Intn(64))}
				}
				if done/window%7 == 0 {
					ops[31] = wireOp{Op: "get", Key: ""}
				}

				body, _ := json.Marshal(ops)
				rec := serve(handlers[0], http.MethodPost, "/batch", body)
				var rows []wireResult
				if err := json.Unmarshal(rec.Body.Bytes(), &rows); rec.Code != http.StatusOK || err != nil || len(rows) != window {
					t.Fatalf("op %d: /batch answered %d, %d rows, %v", done, rec.Code, len(rows), err)
				}
				for i, op := range ops {
					method := methods[op.Op]
					rec := serve(handlers[1], method, "/kv/"+op.Key, op.Value)
					got := ""
					for j, ans := range kvAnswers {
						if ans.method == method && ans.code == rec.Code && ans.xcache == rec.Header().Get("X-Cache") {
							got = ans.row
							seen[j]++
						}
					}
					if got != rows[i].Status {
						t.Fatalf("op %d (%s %q): /kv/ answered %d X-Cache=%q (row %q), the batch row says %q",
							done+i, op.Op, op.Key, rec.Code, rec.Header().Get("X-Cache"), got, rows[i].Status)
					}
					if got == "hit" && !bytes.Equal(rec.Body.Bytes(), rows[i].Value) {
						t.Fatalf("op %d (get %q): /kv/ value %q, batch value %q", done+i, op.Key, rec.Body.Bytes(), rows[i].Value)
					}
				}
				if got := rows[9]; rows[3].Status == "stored" && (got.Status != "hit" || string(got.Value) != "read-back") {
					t.Fatalf("op %d: GET after a stored PUT in one window: %+v", done+9, got)
				}
				if got := rows[27]; got.Status != "miss" {
					t.Fatalf("op %d: GET after PUT, DELETE in one window: %+v", done+27, got)
				}
			}

			for j, ans := range kvAnswers {
				if seen[j] == 0 && (ans.row != "denied" || ccfg.Policy == kvcache.PolicyPDP) {
					t.Errorf("the stream never produced %s %d X-Cache=%q (%s)", ans.method, ans.code, ans.xcache, ans.row)
				}
			}
			if got, want := caches[1].Stats(), caches[0].Stats(); got != want {
				t.Errorf("ledgers differ:\n/kv/    %+v\n/batch  %+v", got, want)
			} else if want.Evictions == 0 || want.Inserts == 0 || want.Deletes == 0 {
				t.Errorf("the stream did not stress the cache: %+v", want)
			}
			if got, want := caches[1].ShardStats(), caches[0].ShardStats(); !reflect.DeepEqual(got, want) {
				t.Errorf("shard ledgers differ:\n/kv/    %+v\n/batch  %+v", got, want)
			}
			for i, c := range caches {
				if err := c.CheckInvariants(); err != nil {
					t.Errorf("cache %d: %v", i, err)
				}
			}
		})
	}
}
