package kvserver

import (
	"context"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"

	"pdp/internal/kvcache"
	"pdp/internal/servefault"
	"pdp/internal/telemetry"
)

func TestBadDeadlineHeaderRejected(t *testing.T) {
	_, base := startServer(t, kvcache.Config{Shards: 2, Sets: 16, Ways: 4}, Config{})

	for _, bad := range []string{"bogus", "-5ms", "0s"} {
		req, _ := http.NewRequest(http.MethodGet, base+"/kv/x", nil)
		req.Header.Set("X-Deadline", bad)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("X-Deadline=%q: %s, want 400", bad, resp.Status)
		}
	}

	// A well-formed generous deadline is honored and the request served.
	req, _ := http.NewRequest(http.MethodGet, base+"/kv/x", nil)
	req.Header.Set("X-Deadline", "2s")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET with valid deadline: %s, want 404 miss", resp.Status)
	}
}

func TestGateReportedInStats(t *testing.T) {
	_, base := startServer(t, kvcache.Config{Shards: 2, Sets: 16, Ways: 4,
		Registry: telemetry.NewRegistry()}, Config{MaxInflight: 8})

	st := getStats(t, base)
	if _, ok := st.Metrics["http.gate_in_flight"]; !ok || st.num("http.gate_max_inflight") != 8 {
		t.Fatalf("gate series missing or wrong: %v", st.Metrics)
	}
}

func TestStateSnapshotOnShutdown(t *testing.T) {
	dir := t.TempDir()
	statePath := filepath.Join(dir, "cache.snap")

	cache, err := kvcache.New(kvcache.Config{
		Policy: kvcache.PolicyPDP, Shards: 2, Sets: 16, Ways: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(cache, Config{
		Addr:      "127.0.0.1:0",
		StatePath: statePath,
		// Long period: the only write should be the final one at Shutdown.
		StateEvery: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	cache.Put("alpha", []byte("v1"))
	cache.Put("beta", []byte("v2"))

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(statePath); err != nil {
		t.Fatalf("no snapshot written at shutdown: %v", err)
	}

	// The snapshot warm-starts an identical cache.
	resumed, err := kvcache.New(kvcache.Config{
		Policy: kvcache.PolicyPDP, Shards: 2, Sets: 16, Ways: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	n, err := servefault.RestoreFromFile(resumed, statePath)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("restored %d entries, want 2", n)
	}
	if v, ok := resumed.Get("alpha"); !ok || string(v) != "v1" {
		t.Fatalf("alpha lost across restart: %q %v", v, ok)
	}
	if v, ok := resumed.Get("beta"); !ok || string(v) != "v2" {
		t.Fatalf("beta lost across restart: %q %v", v, ok)
	}
}
