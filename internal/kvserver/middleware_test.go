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

// flushRecorder is a ResponseWriter that records whether Flush reached
// it — the capability statusWriter must not swallow.
type flushRecorder struct {
	nopResponseWriter
	flushed bool
}

func (w *flushRecorder) Flush() { w.flushed = true }

// readFromRecorder additionally implements io.ReaderFrom, recording
// whether the sendfile-style path was taken.
type readFromRecorder struct {
	nopResponseWriter
	readFrom bool
	n        int64
}

func (w *readFromRecorder) ReadFrom(r io.Reader) (int64, error) {
	w.readFrom = true
	n, err := io.Copy(struct{ io.Writer }{w}, r)
	w.n += n
	return n, err
}

// opaqueReader hides bytes.Reader's WriterTo so io.Copy must discover
// the destination's ReaderFrom instead.
type opaqueReader struct{ io.Reader }

// TestInstrumentPreservesFlusher pins the statusWriter contract: a
// handler running under instrument can still type-assert http.Flusher
// and the flush reaches the real connection. Before the pass-throughs,
// wrapping hid the interface and streaming handlers silently stopped
// flushing.
func TestInstrumentPreservesFlusher(t *testing.T) {
	cache, err := kvcache.New(kvcache.Config{Shards: 1, Sets: 4, Ways: 2})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(cache, Config{Addr: "127.0.0.1:0", Registry: telemetry.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}

	sawFlusher := false
	h := srv.instrument("/stream", func(w http.ResponseWriter, r *http.Request) {
		f, ok := w.(http.Flusher)
		sawFlusher = ok
		if ok {
			f.Flush()
		}
	})
	rec := &flushRecorder{nopResponseWriter: nopResponseWriter{h: make(http.Header)}}
	req, _ := http.NewRequest(http.MethodGet, "http://x/stream", nil)
	h.ServeHTTP(rec, req)
	if !sawFlusher {
		t.Fatal("handler could not assert http.Flusher through the instrumented writer")
	}
	if !rec.flushed {
		t.Fatal("Flush did not reach the underlying writer")
	}

	// A writer with no Flusher underneath must not panic: the
	// pass-through degrades to a no-op.
	h.ServeHTTP(&statusWriter{ResponseWriter: nopResponseWriter{h: make(http.Header)}}, req)
}

// TestStatusWriterReadFrom pins the io.ReaderFrom pass-through both
// ways: delegated when the wrapped writer implements it, plain copy
// when it doesn't — and io.Copy must discover it through the wrapper.
func TestStatusWriterReadFrom(t *testing.T) {
	payload := strings.Repeat("x", 4096)

	under := &readFromRecorder{nopResponseWriter: nopResponseWriter{h: make(http.Header)}}
	sw := &statusWriter{ResponseWriter: under, status: http.StatusOK}
	n, err := io.Copy(sw, opaqueReader{bytes.NewReader([]byte(payload))})
	if err != nil || n != int64(len(payload)) {
		t.Fatalf("io.Copy through statusWriter: n=%d err=%v", n, err)
	}
	if !under.readFrom {
		t.Fatal("underlying ReadFrom was not delegated to")
	}

	// Underlying writer without ReaderFrom: the fallback copy still
	// moves every byte.
	plain := &statusWriter{ResponseWriter: nopResponseWriter{h: make(http.Header)}}
	n, err = plain.ReadFrom(opaqueReader{bytes.NewReader([]byte(payload))})
	if err != nil || n != int64(len(payload)) {
		t.Fatalf("fallback ReadFrom: n=%d err=%v", n, err)
	}
}

// TestStatusWriterUnwrap pins the http.ResponseController convention.
func TestStatusWriterUnwrap(t *testing.T) {
	under := &flushRecorder{nopResponseWriter: nopResponseWriter{h: make(http.Header)}}
	sw := &statusWriter{ResponseWriter: under}
	if got := sw.Unwrap(); got != http.ResponseWriter(under) {
		t.Fatalf("Unwrap returned %T, want the wrapped writer", got)
	}
}

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
