package kvserver

import (
	"context"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"pdp/internal/cluster"
	"pdp/internal/telemetry"
)

// requestID returns the X-Request-Id assigned to r by the middleware (""
// outside an instrumented handler). The id rides the handler's context —
// under cluster's key, so a peer hop forwards it — and error paths
// attribute journal records to the request that hit them.
func requestID(r *http.Request) string {
	id, _ := r.Context().Value(cluster.RequestIDKey).(string)
	return id
}

// statusWriter captures the status code a handler writes; an untouched
// writer reports 200, matching net/http's implicit WriteHeader. Every
// route answers through Write, so it forwards no optional interface.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// methodOther is the clamp label for request methods outside the known
// set. Prometheus series are minted per (route, method, status); keying
// them on the raw client method would let `curl -X anything` mint
// unbounded series, so unknown methods collapse into this one label.
const methodOther = "OTHER"

// knownMethods are the canonical labels; the index of a method here is
// its slot in the counter-cache key. The last slot is the OTHER clamp.
var knownMethods = [...]string{
	http.MethodGet, http.MethodHead, http.MethodPost, http.MethodPut,
	http.MethodDelete, http.MethodOptions, http.MethodPatch,
	http.MethodConnect, http.MethodTrace, methodOther,
}

// methodIndex maps a raw request method to its knownMethods slot,
// clamping anything unknown (including casing variants — Go servers see
// methods verbatim) to the OTHER slot.
func methodIndex(method string) int {
	for i, m := range knownMethods[:len(knownMethods)-1] {
		if m == method {
			return i
		}
	}
	return len(knownMethods) - 1
}

// routeMetrics is the per-route instrumentation state: one latency
// histogram (resolved once at registration) and a lazily grown cache of
// per-method/per-status request counters behind an atomic copy-on-write
// map keyed by the packed (method slot, status) integer — so the
// steady-state request path costs one atomic load and an integer map
// lookup: no registry mutex, no formatting, no key allocation.
type routeMetrics struct {
	name    string
	latency *telemetry.Histogram
	reg     *telemetry.Registry

	mu   sync.Mutex // guards slow-path map growth
	reqs atomic.Pointer[map[uint32]*telemetry.Counter]
}

// counterKey packs a method slot and status into the cache key.
func counterKey(mi, status int) uint32 {
	return uint32(mi)<<16 | uint32(uint16(status))
}

// counter resolves (caching) the request counter for one method/status.
// The method label is clamped to the known set, capping the series
// cardinality per route at len(knownMethods) x distinct statuses served.
func (m *routeMetrics) counter(method string, status int) *telemetry.Counter {
	mi := methodIndex(method)
	key := counterKey(mi, status)
	if mp := m.reqs.Load(); mp != nil {
		if c, ok := (*mp)[key]; ok {
			return c
		}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	old := m.reqs.Load()
	if old != nil {
		if c, ok := (*old)[key]; ok {
			return c
		}
	}
	c := m.reg.Counter(`http.requests{route="` + m.name + `",method="` + knownMethods[mi] +
		`",status="` + strconv.Itoa(status) + `"}`)
	next := make(map[uint32]*telemetry.Counter, 8)
	if old != nil {
		for k, v := range *old {
			next[k] = v
		}
	}
	next[key] = c
	m.reqs.Store(&next)
	return c
}

// instrument wraps a handler with the serving-path observability
// middleware: a per-route nanosecond latency histogram, a
// route/method/status request counter, and an X-Request-Id response
// header (the client's, if it sent one, else a generated id) that is
// also threaded into the request context for journal attribution.
func (s *Server) instrument(route string, h http.HandlerFunc) http.Handler {
	m := &routeMetrics{
		name:    route,
		latency: s.cfg.Registry.Histogram(`http.latency_ns{route="` + route + `"}`),
		reg:     s.cfg.Registry,
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get("X-Request-Id")
		if id == "" {
			id = "r-" + strconv.FormatUint(s.reqSeq.Add(1), 10)
		}
		w.Header().Set("X-Request-Id", id)
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		t0 := time.Now()
		h(sw, r.WithContext(context.WithValue(r.Context(), cluster.RequestIDKey, id)))
		m.latency.Observe(uint64(time.Since(t0)))
		m.counter(r.Method, sw.status).Inc()
	})
}

// getOnly rejects every method but GET with 405 (and an Allow header, as
// RFC 9110 requires) before the wrapped handler runs. Composed inside
// instrument, so rejected requests still count in the route's metrics.
func getOnly(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			w.Header().Set("Allow", http.MethodGet)
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		h(w, r)
	}
}
