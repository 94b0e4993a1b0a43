// Package kvserver exposes a kvcache.Cache over HTTP/JSON: GET/PUT/DELETE
// on /kv/{key} and their batched form POST /batch (one data path: a /kv/
// request is a batch of one), the telemetry registry as JSON on /stats
// (beside the live RDD) and as Prometheus text on /metrics, the policy
// decision ring on /debug/decisions, /healthz (liveness) and
// /readyz (readiness: 503 while any shard serves degraded). Every route
// runs under the instrumentation middleware (per-route/method/status
// counters, nanosecond latency histograms, X-Request-Id threading); the
// data path additionally runs under overload protection — per-request
// deadlines (the client's X-Deadline or a configured default) and a
// concurrency-limited admission gate that sheds with 503 + Retry-After
// instead of queueing unboundedly. It is the serving shell of
// cmd/pdpcached; the cache itself stays transport-agnostic.
package kvserver

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"pdp/internal/cluster"
	"pdp/internal/kvcache"
	"pdp/internal/resilience"
	"pdp/internal/servefault"
	"pdp/internal/telemetry"
)

// Config parameterizes a Server.
type Config struct {
	// Addr is the listen address (e.g. ":7070"; ":0" picks a free port).
	Addr string
	// MaxValueBytes caps one PUT body (default 1 MiB).
	MaxValueBytes int64
	// AdaptEvery runs the cache breaker's wall-clock healing tick at that
	// period: a recompute while any shard is degraded, so an idle node
	// re-arms (kvcache.Cache.Heal); 0 disables it, and the count trigger then
	// drives every recompute. Negative values are rejected.
	AdaptEvery time.Duration
	// SnapshotEvery emits a telemetry snapshot record at that period; 0
	// disables. Negative values are rejected. Requires Journal.
	SnapshotEvery time.Duration

	// MaxBatchOps caps the operations of one POST /batch request (default
	// 1024; larger batches answer 413).
	MaxBatchOps int
	// MaxBatchBytes caps one /batch request body (default 8 MiB).
	MaxBatchBytes int64

	// MaxInflight bounds concurrent /kv/ and /batch requests (one batch
	// takes one slot — the amortization that makes batching pay also
	// applies to the gate). A request arriving at a full gate is shed with
	// 503 + Retry-After when it carries no deadline, and otherwise waits
	// until a slot frees or the deadline expires (504). 0 disables the
	// gate.
	MaxInflight int
	// DefaultDeadline bounds every /kv/ and /batch request that arrives
	// without an X-Deadline header; 0 applies no default. Clients override
	// it per request with X-Deadline (a Go duration, e.g. "250ms").
	DefaultDeadline time.Duration

	// StatePath enables crash-safe warm restarts: the cache's warm state
	// (entries, protection bookkeeping, RDD evidence, PD) is snapshotted
	// there every StateEvery (default 30s) and once more at shutdown,
	// atomically and durably. Empty disables state snapshots.
	StatePath string
	// StateEvery is the state-snapshot period (default 30s when
	// StatePath is set).
	StateEvery time.Duration

	// Cluster enables ownership-aware routing: keys this node owns are
	// served locally; ops on keys a live peer owns are forwarded to its
	// /batch route (/kv/ GETs through the singleflight fill table), with a
	// local fallback when the peer is unreachable. Nil keeps the server
	// single-node. The server drives the cluster's probe loop from
	// Start/Shutdown.
	Cluster *cluster.Cluster
	// Listener, when non-nil, is used instead of listening on Addr — a
	// test seam that lets a caller pre-bind ports so peer URLs are known
	// before any server starts.
	Listener net.Listener

	// Registry and Journal receive server telemetry (both optional; the
	// cache's registry by default). /stats and /metrics are encodings of
	// the registry, so without one they report no series.
	Registry *telemetry.Registry
	Journal  *telemetry.Journal
}

// Server serves one kvcache.Cache over HTTP.
type Server struct {
	cfg     Config
	cache   *kvcache.Cache
	ln      net.Listener
	httpSrv *http.Server
	gate    *servefault.Gate

	stops     []func() // the periodic jobs' stop functions, in Shutdown order
	lastStats kvcache.Stats

	// Crash-safe state snapshots (Start owns the coalescing saver and its ticker).
	mSnaps    *telemetry.Counter
	mSnapErrs *telemetry.Counter

	// Middleware state: the request-id generator.
	reqSeq  atomic.Uint64
	mErrors *telemetry.Counter

	// Batch-path telemetry: batch/op counts, the batch-size log2
	// histogram, and the amortized per-op latency histogram (one batch's
	// wall time booked once per op).
	mBatches    *telemetry.Counter
	mBatchOps   *telemetry.Counter
	hBatchSize  *telemetry.Histogram
	hBatchOpLat *telemetry.Histogram

	errCh chan error
}

// New validates cfg and binds a server to the cache. The listener is not
// opened until Start.
func New(cache *kvcache.Cache, cfg Config) (*Server, error) {
	if cache == nil {
		return nil, fmt.Errorf("kvserver: nil cache")
	}
	if cfg.Addr == "" {
		cfg.Addr = ":7070"
	}
	if cfg.MaxValueBytes == 0 {
		cfg.MaxValueBytes = 1 << 20
	}
	if cfg.MaxValueBytes < 0 {
		return nil, fmt.Errorf("kvserver: MaxValueBytes must be positive, got %d", cfg.MaxValueBytes)
	}
	if cfg.AdaptEvery < 0 {
		return nil, fmt.Errorf("kvserver: AdaptEvery must be >= 0, got %v", cfg.AdaptEvery)
	}
	if cfg.SnapshotEvery < 0 {
		return nil, fmt.Errorf("kvserver: SnapshotEvery must be >= 0, got %v", cfg.SnapshotEvery)
	}
	if cfg.MaxBatchOps == 0 {
		cfg.MaxBatchOps = 1024
	}
	if cfg.MaxBatchOps < 0 {
		return nil, fmt.Errorf("kvserver: MaxBatchOps must be positive, got %d", cfg.MaxBatchOps)
	}
	if cfg.MaxBatchBytes == 0 {
		cfg.MaxBatchBytes = 8 << 20
	}
	if cfg.MaxBatchBytes < 0 {
		return nil, fmt.Errorf("kvserver: MaxBatchBytes must be positive, got %d", cfg.MaxBatchBytes)
	}
	if cfg.MaxInflight < 0 {
		return nil, fmt.Errorf("kvserver: MaxInflight must be >= 0, got %d", cfg.MaxInflight)
	}
	if cfg.DefaultDeadline < 0 {
		return nil, fmt.Errorf("kvserver: DefaultDeadline must be >= 0, got %v", cfg.DefaultDeadline)
	}
	if cfg.StateEvery < 0 {
		return nil, fmt.Errorf("kvserver: StateEvery must be >= 0, got %v", cfg.StateEvery)
	}
	if cfg.StatePath != "" && cfg.StateEvery == 0 {
		cfg.StateEvery = 30 * time.Second
	}
	if cfg.Registry == nil {
		// Default to the cache's registry so one /metrics scrape covers
		// both the serving layer and the cache it fronts.
		cfg.Registry = cache.Config().Registry
	}
	s := &Server{cfg: cfg, cache: cache, errCh: make(chan error, 1)}
	s.mErrors = cfg.Registry.Counter("http.serve_errors")
	s.mSnapErrs = cfg.Registry.Counter("kv.state_snapshot_errors")
	s.mSnaps = cfg.Registry.Counter("kv.state_snapshots")
	s.mBatches = cfg.Registry.Counter("http.batches")
	s.mBatchOps = cfg.Registry.Counter("http.batch_ops")
	s.hBatchSize = cfg.Registry.Histogram("http.batch_size")
	s.hBatchOpLat = cfg.Registry.Histogram("http.batch_op_latency_ns")
	// A shed answer carries Retry-After: 1 (second).
	s.gate = servefault.NewGate(cfg.MaxInflight, time.Second, cfg.Registry, cfg.Journal)
	mux := http.NewServeMux()
	mux.Handle("/kv/", s.instrument("/kv/", s.protect("/kv/", s.routeKV)))
	mux.Handle("/batch", s.instrument("/batch", s.protect("/batch", s.handleBatch)))
	if cfg.Cluster != nil {
		mux.Handle("/cluster/ring", s.instrument("/cluster/ring", getOnly(s.handleClusterRing)))
	}
	mux.Handle("/stats", s.instrument("/stats", getOnly(s.handleStats)))
	mux.Handle("/healthz", s.instrument("/healthz", getOnly(s.handleHealthz)))
	mux.Handle("/readyz", s.instrument("/readyz", getOnly(s.handleReadyz)))
	mux.Handle("/metrics", s.instrument("/metrics", getOnly(s.handleMetrics)))
	mux.Handle("/debug/decisions", s.instrument("/debug/decisions", getOnly(s.handleDecisions)))
	s.httpSrv = &http.Server{Handler: mux}
	return s, nil
}

// serveError books one serving-layer fault: the counter for alerting, the
// journal for forensics (with the failing route and request id).
func (s *Server) serveError(route, reqID string, err error) {
	s.mErrors.Inc()
	s.cfg.Journal.Append(telemetry.ServeErrorRecord{
		Kind:      telemetry.KindServeError,
		Route:     route,
		RequestID: reqID,
		Err:       err.Error(),
	})
}

// Start opens the listener and begins serving in the background; it
// returns once the port is bound, so Addr() is immediately valid.
func (s *Server) Start(ctx context.Context) error {
	ln := s.cfg.Listener
	if ln == nil {
		var err error
		ln, err = net.Listen("tcp", s.cfg.Addr)
		if err != nil {
			return fmt.Errorf("kvserver: listen %s: %w", s.cfg.Addr, err)
		}
	}
	s.ln = ln
	go func() {
		if err := s.httpSrv.Serve(ln); err != nil && err != http.ErrServerClosed {
			// Record to telemetry and journal *before* offering the error
			// on the channel: errCh has capacity 1 and is only drained by
			// a caller that happens to be listening, so an error racing
			// shutdown must not depend on the channel for visibility.
			s.serveError("", "", err)
			select {
			case s.errCh <- err:
			default:
			}
		}
	}()
	if s.cfg.SnapshotEvery > 0 {
		// One SnapshotRecord per period: the serving-layer time series (hit
		// rate, PD, occupancy) that mirrors the simulator's interval snapshots.
		s.stops = append(s.stops, resilience.Every(ctx, s.cfg.SnapshotEvery, func(context.Context) { s.emitSnapshot() }))
	}
	if s.cfg.StatePath != "" {
		// One save per period, then the final save once the job's stop has
		// waited out an in-flight tick: the file has exactly one writer.
		s.stops = append(s.stops,
			resilience.Every(ctx, s.cfg.StateEvery, func(context.Context) { s.saveState() }), s.saveState)
	}
	if s.cfg.AdaptEvery > 0 {
		// The breaker's healing tick (kvcache.Cache.Heal), stopped last.
		s.stops = append(s.stops, resilience.Every(ctx, s.cfg.AdaptEvery, func(context.Context) { s.cache.Heal() }))
	}
	if s.cfg.Cluster != nil {
		s.cfg.Cluster.Start(ctx)
	}
	return nil
}

// saveState persists one crash-safe cache snapshot (each state tick, and
// once more during Shutdown), booking a failure as a serving error.
func (s *Server) saveState() {
	if err := servefault.SaveSnapshot(s.cache, s.cfg.StatePath, s.cfg.Journal); err != nil {
		s.mSnapErrs.Inc()
		s.serveError("", "", err)
		return
	}
	s.mSnaps.Inc()
}

// Addr returns the bound listen address (valid after Start).
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Err returns a channel receiving a fatal serve error, if one occurs.
func (s *Server) Err() <-chan error { return s.errCh }

// Shutdown stops the periodic jobs (snapshots, state saves, the healing
// tick) and the HTTP server gracefully — persisting one final cache-state
// snapshot when StatePath is configured, so a clean restart resumes from
// the freshest state — then flushes the journal.
func (s *Server) Shutdown(ctx context.Context) error {
	if s.cfg.Cluster != nil {
		s.cfg.Cluster.Stop()
	}
	for _, stop := range s.stops {
		stop()
	}
	s.stops = nil // a second Shutdown must not save the state again
	err := s.httpSrv.Shutdown(ctx)
	if ferr := s.cfg.Journal.Flush(); err == nil {
		err = ferr
	}
	return err
}

func (s *Server) emitSnapshot() {
	st := s.cache.Stats()
	prev := s.lastStats
	s.lastStats = st
	var interval float64
	if dg := st.Gets - prev.Gets; dg > 0 {
		interval = float64(st.Hits-prev.Hits) / float64(dg)
	}
	capacity := s.cache.Config().Shards * s.cache.Config().Sets * s.cache.Config().Ways
	var validFrac float64
	if capacity > 0 {
		validFrac = float64(st.Entries) / float64(capacity)
	}
	s.cfg.Journal.Append(telemetry.SnapshotRecord{
		Kind:            telemetry.KindSnapshot,
		Access:          st.Gets + st.Puts + st.Deletes,
		HitRate:         st.HitRate(),
		IntervalHitRate: interval,
		PD:              st.PD,
		Accesses:        st.Gets,
		Hits:            st.Hits,
		Misses:          st.Misses,
		Evictions:       st.Evictions,
		Bypasses:        st.Denies,
		ValidFrac:       validFrac,
	})
}

// protect wraps a data-path handler with overload protection: the
// per-request deadline (the client's X-Deadline, else the configured
// default) and the admission gate. Shed requests answer 503 with a
// Retry-After hint; requests whose deadline expires while queued answer
// 504. Composed inside instrument, so sheds still count in the route's
// request metrics and latency histogram.
func (s *Server) protect(route string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		ctx := r.Context()
		deadline := s.cfg.DefaultDeadline
		if v := r.Header.Get("X-Deadline"); v != "" {
			d, err := time.ParseDuration(v)
			if err != nil || d <= 0 {
				http.Error(w, "bad X-Deadline", http.StatusBadRequest)
				return
			}
			deadline = d
		}
		if deadline > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, deadline)
			defer cancel()
			r = r.WithContext(ctx)
		}
		switch err := s.gate.Enter(ctx, route, requestID(r)); err {
		case nil:
			defer s.gate.Exit()
		case servefault.ErrShed:
			s.writeShed(w)
			return
		default: // servefault.ErrDeadline
			http.Error(w, "deadline expired while queued", http.StatusGatewayTimeout)
			return
		}
		if ctx.Err() != nil {
			// Admitted, but the budget is already gone: answering 504 now is
			// cheaper than doing work the client has stopped waiting for.
			http.Error(w, "deadline expired", http.StatusGatewayTimeout)
			return
		}
		h(w, r)
	}
}

// writeShed is the one answer to a request a gate refused — this node's,
// or on /kv/ the gate of the key's owner: 503 with the Retry-After hint.
func (s *Server) writeShed(w http.ResponseWriter) {
	secs := max(1, int(s.gate.RetryAfter()/time.Second))
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	http.Error(w, "overloaded, retry later", http.StatusServiceUnavailable)
}

// appendLimited is io.ReadAll with a caller-owned buffer: it reads r to
// EOF into buf (reusing its capacity, growing as needed) but never past
// limit bytes, so an oversized body costs bounded memory and the data
// routes can reuse a pooled buffer instead of allocating per request.
func appendLimited(buf []byte, r io.Reader, limit int64) ([]byte, error) {
	for int64(len(buf)) < limit {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		space := cap(buf) - len(buf)
		if int64(space) > limit-int64(len(buf)) {
			space = int(limit - int64(len(buf)))
		}
		n, err := r.Read(buf[len(buf) : len(buf)+space])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			break
		}
		if err != nil {
			return buf, err
		}
	}
	return buf, nil
}

// handleStats serves the registry's Snapshot as JSON beside the policy
// and the live merged RDD (PDP only) — what the next recompute will
// decide from. /metrics renders the same Snapshot, so the two endpoints
// report the same series under the same names.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	resp := struct {
		Policy  kvcache.Policy   `json:"policy"`
		Metrics map[string]any   `json:"metrics"`
		RDD     *kvcache.RDDView `json:"rdd,omitempty"`
	}{Policy: s.cache.Config().Policy, Metrics: s.cfg.Registry.Snapshot()}
	if rdd := s.cache.RDDSnapshot(); rdd.Counts != nil {
		resp.RDD = &rdd
	}
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(resp); err != nil {
		s.serveError("/stats", requestID(r), err)
	}
}

// handleMetrics serves the registry in Prometheus text format; the
// cache's series are read-time views, so a scrape is always current.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.cfg.Registry.WriteProm(w); err != nil {
		s.serveError("/metrics", requestID(r), err)
	}
}

// decisionsResponse is the /debug/decisions JSON schema; the per-kind
// counts are the kv.evictions, kv.denies and kv.saves series.
type decisionsResponse struct {
	Total uint64             `json:"total"`
	Tail  []kvcache.Decision `json:"tail"`
}

// handleDecisions exports the shards' policy decision rings: up to n
// (default 100) recent attributed decisions, chosen and ordered as
// kvcache.DecisionLog.Tail documents.
func (s *Server) handleDecisions(w http.ResponseWriter, r *http.Request) {
	dl := s.cache.Decisions()
	n := 100
	if v := r.URL.Query().Get("n"); v != "" {
		parsed, err := strconv.Atoi(v)
		if err != nil || parsed < 1 {
			http.Error(w, "bad n", http.StatusBadRequest)
			return
		}
		n = parsed
	}
	resp := decisionsResponse{Total: dl.Total(), Tail: dl.Tail(n)}
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(resp); err != nil {
		s.serveError("/debug/decisions", requestID(r), err)
	}
}

// handleHealthz is liveness: the process is up and serving HTTP. It stays
// 200 even while shards serve degraded — a degraded cache is exactly the
// state where restarting the process would make things worse.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.WriteHeader(http.StatusOK)
	if _, err := io.WriteString(w, "ok\n"); err != nil {
		s.serveError("/healthz", requestID(r), err)
	}
}

// readyzResponse is the /readyz JSON schema.
type readyzResponse struct {
	Ready bool `json:"ready"`
	// DegradedShards is the number of shards currently serving in
	// shadow-LRU fallback (the reason for a not-ready answer).
	DegradedShards int `json:"degraded_shards"`
	// BreakerTrips/Rearms give the transition history behind the state.
	BreakerTrips  uint64 `json:"breaker_trips"`
	BreakerRearms uint64 `json:"breaker_rearms"`
}

// handleReadyz is readiness: 200 while every shard serves its configured
// policy, 503 while any shard is tripped into degraded shadow-LRU
// fallback — load balancers drain a degraded replica without killing it.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	st := s.cache.Stats()
	resp := readyzResponse{
		DegradedShards: st.DegradedShards,
		BreakerTrips:   st.BreakerTrips,
		BreakerRearms:  st.BreakerRearms,
	}
	resp.Ready = resp.DegradedShards == 0
	w.Header().Set("Content-Type", "application/json")
	if !resp.Ready {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	if err := json.NewEncoder(w).Encode(resp); err != nil {
		s.serveError("/readyz", requestID(r), err)
	}
}
