package kvserver

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	"pdp/internal/kvcache"
	"pdp/internal/telemetry"
)

// TestMethodLabelClamped is the cardinality regression test for the
// per-route request counters: arbitrary client methods (`curl -X
// whatever`) must collapse into the OTHER label instead of minting one
// Prometheus series per distinct string an attacker sends.
func TestMethodLabelClamped(t *testing.T) {
	_, base := startServer(t, kvcache.Config{
		Shards: 1, Sets: 16, Ways: 4, Registry: telemetry.NewRegistry(),
	}, Config{})
	client := &http.Client{}

	junk := []string{"FOO", "BARBAZ", "EVIL-9", "get"} // casing variants are unknown too
	for _, method := range junk {
		req, err := http.NewRequest(method, base+"/kv/cardinality", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}

	resp, err := client.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	page := string(body)
	if err := telemetry.LintProm(bytes.NewReader(body)); err != nil {
		t.Fatalf("/metrics fails promlint after clamped methods: %v", err)
	}
	if !strings.Contains(page, `method="OTHER"`) {
		t.Fatal("expected a method=\"OTHER\" series after unknown-method requests")
	}
	for _, method := range junk {
		if strings.Contains(page, `method="`+method+`"`) {
			t.Fatalf("raw client method %q leaked into a metric series", method)
		}
	}
}

// TestMethodCardinalityCap hammers one route's counter cache with
// hundreds of distinct methods and asserts the series count stays at
// one — the OTHER clamp — not one per string.
func TestMethodCardinalityCap(t *testing.T) {
	reg := telemetry.NewRegistry()
	m := &routeMetrics{
		name:    "/kv/",
		latency: reg.Histogram(`http.latency_ns{route="/kv/"}`),
		reg:     reg,
	}
	for i := 0; i < 500; i++ {
		m.counter(fmt.Sprintf("M%03d", i), http.StatusMethodNotAllowed).Inc()
	}
	requestSeries := func() int {
		n := 0
		for name := range reg.Snapshot() {
			if strings.HasPrefix(name, "http.requests{") {
				n++
			}
		}
		return n
	}
	if series := requestSeries(); series != 1 {
		t.Fatalf("500 distinct methods minted %d request series, want 1 (OTHER clamp)", series)
	}

	// Known methods still get their own labeled series.
	for _, method := range knownMethods {
		m.counter(method, http.StatusOK).Inc()
	}
	want := len(knownMethods) + 1 // one per known label at 200, plus the 405 OTHER above
	if series := requestSeries(); series != want {
		t.Fatalf("series count %d, want %d: cardinality must be bounded by the known-method set", series, want)
	}
}
