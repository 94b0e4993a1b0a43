package cluster

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pdp/internal/batchwire"
	"pdp/internal/telemetry"
)

// TestFlightCoalesces: N concurrent Do calls for one key run the fetch
// exactly once and share its result; a later call after completion runs
// a fresh fetch (the table is not a cache).
func TestFlightCoalesces(t *testing.T) {
	var f Flight
	var calls atomic.Int64
	release := make(chan struct{})
	const N = 16

	var wg sync.WaitGroup
	var sharedCount atomic.Int64
	for i := 0; i < N; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err, shared := f.Do("k", func() (*PeerResponse, error) {
				calls.Add(1)
				<-release
				return &PeerResponse{Status: 200, Body: []byte("v")}, nil
			})
			if err != nil || v.Status != 200 || string(v.Body) != "v" {
				t.Errorf("Do: v=%v err=%v", v, err)
			}
			if shared {
				sharedCount.Add(1)
			}
		}()
	}
	// Wait until the one fetch is in flight, then let it finish.
	for f.InFlight() == 0 {
		time.Sleep(time.Millisecond)
	}
	// Give the other goroutines a beat to pile onto the same call.
	time.Sleep(20 * time.Millisecond)
	close(release)
	wg.Wait()

	if got := calls.Load(); got != 1 {
		t.Fatalf("fetch ran %d times for %d concurrent misses, want 1", got, N)
	}
	if got := sharedCount.Load(); got != N-1 {
		t.Fatalf("%d callers saw shared=true, want %d", got, N-1)
	}

	// After completion the key is gone: the next Do fetches again.
	_, _, shared := f.Do("k", func() (*PeerResponse, error) {
		calls.Add(1)
		return &PeerResponse{Status: 404}, nil
	})
	if shared || calls.Load() != 2 {
		t.Fatalf("post-completion Do: shared=%v calls=%d, want fresh fetch", shared, calls.Load())
	}
}

// TestFlightDistinctKeys: different keys never coalesce.
func TestFlightDistinctKeys(t *testing.T) {
	var f Flight
	var calls atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			f.Do(fmt.Sprintf("k%d", i), func() (*PeerResponse, error) {
				calls.Add(1)
				return &PeerResponse{}, nil
			})
		}(i)
	}
	wg.Wait()
	if calls.Load() != 8 {
		t.Fatalf("distinct keys coalesced: %d calls, want 8", calls.Load())
	}
}

// TestExchangeFailuresEject: with the probe loop never started, EjectAfter
// consecutive failed ForwardBatch calls eject the owner — a dropped
// connection and a 500 both count — while an answer in between, even a 503
// shed, restarts the count.
func TestExchangeFailuresEject(t *testing.T) {
	const (
		drop = iota
		boom
		shed
	)
	var mode atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch mode.Load() {
		case drop:
			conn, _, _ := w.(http.Hijacker).Hijack()
			conn.Close()
		case boom:
			http.Error(w, "boom", http.StatusInternalServerError)
		case shed:
			http.Error(w, "busy", http.StatusServiceUnavailable)
		}
	}))
	defer srv.Close()
	self := "http://127.0.0.1:1"
	journal := telemetry.NewJournal(8)
	c, err := New(Config{
		Self: self, Peers: []string{self, srv.URL}, EjectAfter: 3,
		Registry: telemetry.NewRegistry(), Journal: journal,
	})
	if err != nil {
		t.Fatal(err)
	}
	key := ownedBy(t, c.Ring(), srv.URL)
	body := []byte(`[{"op":"get","key":"` + key + `"}]`)
	forward := func(m int32) {
		t.Helper()
		mode.Store(m)
		c.ForwardBatch(context.Background(), srv.URL, body, 1<<20)
	}

	for _, m := range []int32{drop, boom, shed, drop, boom} {
		forward(m)
	}
	if !c.Ring().IsAlive(srv.URL) {
		t.Fatal("peer ejected although an answer broke the run of failures")
	}
	forward(drop)
	if c.Ring().IsAlive(srv.URL) {
		t.Fatal("peer still in the ring after EjectAfter consecutive failed exchanges")
	}
	if o, local, _ := c.Owner(key); !local {
		t.Fatalf("after ejection key owner = %q, want self", o)
	}
	if v := c.StatsView(""); v.Ejections != 1 || v.Alive != 1 {
		t.Fatalf("ejections=%d alive=%d, want 1 and 1", v.Ejections, v.Alive)
	}
	if n := journal.CountKind(telemetry.KindMembership); n != 1 {
		t.Fatalf("membership journal records: %d, want 1", n)
	}
}

// TestCallerCancelledExchangeIsNoEvidence: an exchange that fails because
// the caller's context ended (the client hung up mid-batch) is evidence
// about the caller, not the peer. EjectAfter+1 of them against a slow but
// healthy peer leave it in the ring, uncounted as a peer error.
func TestCallerCancelledExchangeIsNoEvidence(t *testing.T) {
	release := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-r.Context().Done():
		case <-release:
		}
	}))
	defer srv.Close()
	defer close(release)
	self := "http://127.0.0.1:1"
	reg := telemetry.NewRegistry()
	c, err := New(Config{Self: self, Peers: []string{self, srv.URL}, EjectAfter: 3, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	body := []byte(`[{"op":"get","key":"` + ownedBy(t, c.Ring(), srv.URL) + `"}]`)
	for i := 0; i < 3+1; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
		if _, err := c.ForwardBatch(ctx, srv.URL, body, 1<<20); err == nil {
			t.Fatal("exchange succeeded although the caller's context ended")
		}
		cancel()
	}
	if !c.Ring().IsAlive(srv.URL) {
		t.Fatal("caller-cancelled exchanges ejected a healthy peer")
	}
	if v := c.StatsView(""); v.Ejections != 0 {
		t.Fatalf("ejections = %d, want 0", v.Ejections)
	}
	if n := reg.Counter("cluster.peer_errors{" + telemetry.Label("peer", srv.URL) + "}").Value(); n != 0 {
		t.Fatalf("peer_errors = %d, want 0", n)
	}
}

// fakePeer is a controllable cluster member: a real HTTP server whose
// /healthz can be flipped and whose /batch exchanges are counted; each
// answers one hit row carrying value.
type fakePeer struct {
	srv     *httptest.Server
	healthy atomic.Bool
	gets    atomic.Int64
	delay   time.Duration
	value   []byte
}

func newFakePeer(t *testing.T, delay time.Duration) *fakePeer {
	t.Helper()
	f := &fakePeer{delay: delay, value: []byte("peer-value")}
	f.healthy.Store(true)
	f.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.URL.Path == "/healthz":
			if !f.healthy.Load() {
				http.Error(w, "down", http.StatusServiceUnavailable)
				return
			}
			w.Write([]byte("ok\n"))
		case r.URL.Path == "/batch" && r.Method == http.MethodPost:
			f.gets.Add(1)
			time.Sleep(f.delay)
			w.Write(batchwire.AppendRows(nil, []batchwire.Row{{Status: "hit", Value: f.value}}))
		default:
			http.NotFound(w, r)
		}
	}))
	t.Cleanup(f.srv.Close)
	return f
}

// ownedBy hunts for a key the ring assigns to the wanted member.
func ownedBy(t *testing.T, r *Ring, want string) string {
	t.Helper()
	for i := 0; i < 100000; i++ {
		k := fmt.Sprintf("key-%d", i)
		if o, _ := r.Owner(k); o == want {
			return k
		}
	}
	t.Fatalf("no key owned by %s in 100k tries", want)
	return ""
}

// TestFetchGetSingleflight is the acceptance test for coalesced fills:
// N concurrent misses for one non-owned key cost exactly one peer fetch.
func TestFetchGetSingleflight(t *testing.T) {
	peer := newFakePeer(t, 30*time.Millisecond)
	self := "http://127.0.0.1:1" // never dialed: everything routes to the fake
	c, err := New(Config{
		Self:     self,
		Peers:    []string{self, peer.srv.URL},
		Registry: telemetry.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	key := ownedBy(t, c.Ring(), peer.srv.URL)

	const N = 24
	var wg sync.WaitGroup
	errs := make(chan error, N)
	for i := 0; i < N; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := c.FetchGet(context.Background(), peer.srv.URL, key)
			if err != nil {
				errs <- err
				return
			}
			rows, _, perr := batchwire.ParseRows(resp.Body, nil, nil)
			if resp.Status != http.StatusOK || perr != nil || len(rows) != 1 ||
				rows[0].Status != "hit" || string(rows[0].Value) != "peer-value" {
				errs <- fmt.Errorf("bad response %d %q (%v)", resp.Status, resp.Body, perr)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := peer.gets.Load(); got != 1 {
		t.Fatalf("%d concurrent misses cost %d peer fetches, want exactly 1", N, got)
	}
	v := c.StatsView("")
	if v.Coalesced != N-1 {
		t.Fatalf("coalesced counter %d, want %d", v.Coalesced, N-1)
	}
}

// TestProbeEjectRejoin: the probe loop ejects a peer after EjectAfter
// consecutive failed rounds and rejoins it after RejoinAfter successes;
// ownership follows.
func TestProbeEjectRejoin(t *testing.T) {
	peer := newFakePeer(t, 0)
	self := "http://127.0.0.1:1"
	reg := telemetry.NewRegistry()
	journal := telemetry.NewJournal(64)
	c, err := New(Config{
		Self:         self,
		Peers:        []string{self, peer.srv.URL},
		ProbeEvery:   20 * time.Millisecond,
		ProbeTimeout: 100 * time.Millisecond,
		EjectAfter:   2,
		RejoinAfter:  2,
		Registry:     reg,
		Journal:      journal,
	})
	if err != nil {
		t.Fatal(err)
	}
	key := ownedBy(t, c.Ring(), peer.srv.URL)
	c.Start(context.Background())
	defer c.Stop()

	waitFor := func(desc string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			if cond() {
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
		t.Fatalf("timeout waiting for %s", desc)
	}

	// Healthy: the peer stays in the ring.
	time.Sleep(100 * time.Millisecond)
	if !c.Ring().IsAlive(peer.srv.URL) {
		t.Fatal("healthy peer ejected")
	}

	// Fail its health checks: after EjectAfter rounds it leaves the ring
	// and its keys land on the survivor (self).
	peer.healthy.Store(false)
	waitFor("ejection", func() bool { return !c.Ring().IsAlive(peer.srv.URL) })
	if o, _, ok := c.Owner(key); !ok || o != self {
		t.Fatalf("after ejection key owner = %q, want self", o)
	}

	// Recover: it rejoins and gets its keys back.
	peer.healthy.Store(true)
	waitFor("rejoin", func() bool { return c.Ring().IsAlive(peer.srv.URL) })
	if o, _, _ := c.Owner(key); o != peer.srv.URL {
		t.Fatalf("after rejoin key owner = %q, want peer", o)
	}

	v := c.StatsView("")
	if v.Ejections < 1 || v.Rejoins < 1 {
		t.Fatalf("transition counters: ejections=%d rejoins=%d, want >= 1 each", v.Ejections, v.Rejoins)
	}
	if journal.CountKind(telemetry.KindMembership) < 2 {
		t.Fatalf("membership journal records: %d, want >= 2", journal.CountKind(telemetry.KindMembership))
	}
}

// TestLivenessViewsFollowRing: two peers ejected in one parallel probe
// round, then rejoined in one, leave cluster.members_alive and every
// cluster.peer_up{peer} equal to the ring's liveness.
func TestLivenessViewsFollowRing(t *testing.T) {
	a, b, other := newFakePeer(t, 0), newFakePeer(t, 0), newFakePeer(t, 0)
	self := "http://127.0.0.1:1"
	reg := telemetry.NewRegistry()
	c, err := New(Config{
		Self:         self,
		Peers:        []string{self, a.srv.URL, b.srv.URL, other.srv.URL},
		ProbeTimeout: 100 * time.Millisecond,
		EjectAfter:   1,
		RejoinAfter:  1,
		Registry:     reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	check := func(when string, alive int) {
		t.Helper()
		snap, r := reg.Snapshot(), c.Ring()
		if got := snap["cluster.members_alive"]; r.AliveCount() != alive || got != float64(alive) {
			t.Fatalf("%s: ring has %d alive, members_alive = %v, want %d", when, r.AliveCount(), got, alive)
		}
		for _, m := range r.Members() {
			if m == self {
				continue
			}
			want := 0.0
			if r.IsAlive(m) {
				want = 1
			}
			if got := snap["cluster.peer_up{"+telemetry.Label("peer", m)+"}"]; got != want {
				t.Fatalf("%s: peer_up{%s} = %v, ring says %v", when, m, got, want)
			}
		}
	}
	check("before probing", 4)
	a.healthy.Store(false)
	b.healthy.Store(false)
	c.probeRound(context.Background())
	check("after two ejections in one round", 2)
	a.healthy.Store(true)
	b.healthy.Store(true)
	c.probeRound(context.Background())
	check("after both rejoined", 4)
}

// TestClusterValidation pins the config error paths.
func TestClusterValidation(t *testing.T) {
	if _, err := New(Config{Peers: []string{"a"}}); err == nil {
		t.Fatal("missing Self accepted")
	}
	if _, err := New(Config{Self: "a"}); err == nil {
		t.Fatal("missing Peers accepted")
	}
	if _, err := New(Config{Self: "c", Peers: []string{"a", "b"}}); err == nil {
		t.Fatal("Self outside Peers accepted")
	}
	if _, err := New(Config{Self: "a", Peers: []string{"a"}, ProbeEvery: -time.Second}); err == nil {
		t.Fatal("negative ProbeEvery accepted")
	}
}
