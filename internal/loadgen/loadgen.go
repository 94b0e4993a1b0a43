// Package loadgen replays deterministic workload.ServiceStream request
// mixes against a kvserver over HTTP — the serving-layer analogue of the
// simulator's trace driver. Each worker owns a stream seeded from the base
// seed and its worker index, so a run is reproducible for any worker
// count, and the same seeded stream can be replayed against a PDP and an
// LRU server for an apples-to-apples hit-rate comparison.
//
// The client is overload-aware: it propagates a per-request deadline via
// X-Deadline, retries shed (503) and transport-failed requests with
// capped exponential backoff plus seeded jitter, and classifies every
// failure — shed vs timeout vs transport vs server error — so a chaos
// campaign can tell load shedding (availability working as designed)
// from actual unavailability. Sheds and failures never pollute the
// measured hit rate: hits and misses count only from definitive 200/404
// answers.
//
// With Batch > 1 the client switches to the batched wire protocol: each
// worker buffers Batch consecutive ops from its stream and ships them as
// one POST /batch. The unbatched protocol is the same loop at group size
// one, its /kv/ answer normalised to the row a one-op batch would carry,
// so both protocols book per-op outcomes from rows in one place (batch.go).
// Latency is recorded amortized — the request's wall time divided by the
// ops it carried, observed once per op — so quantiles and Throughput()
// stay per-operation comparable across the two.
package loadgen

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"slices"
	"strings"
	"sync"
	"syscall"
	"time"

	"pdp/internal/batchwire"
	"pdp/internal/kvcache"
	"pdp/internal/telemetry"
	"pdp/internal/trace"
	"pdp/internal/workload"
)

// Config parameterizes a load run.
type Config struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:7070".
	BaseURL string
	// Targets, when set, drives several servers (a cluster) instead of the
	// single BaseURL: workers spread their traffic round-robin across the
	// list and rotate to the next target when a retryable failure (shed,
	// transport, connection refused) suggests the current one is in
	// trouble. The Result then carries per-target attribution.
	Targets []string
	// Mix is the request mix each worker replays.
	Mix workload.ServiceConfig
	// Workers is the number of concurrent client goroutines (default 1).
	Workers int
	// Ops is the number of operations per worker (default 10000).
	Ops int
	// Batch, when > 1, groups each worker's ops into POST /batch requests
	// of this size (a final short batch flushes the remainder). GET misses
	// are filled cache-aside through a follow-up fill batch. Per-op
	// accounting is preserved: each response row books one outcome, a
	// whole-batch shed or failure books one outcome per op it carried, and
	// Ops/Hits/Misses keep their per-operation meaning. 0 or 1 drives the
	// unbatched per-op protocol.
	Batch int
	// Seed is the base seed; worker w uses Seed + w.
	Seed uint64
	// Retries is how many times a shed (503) or transport-failed request
	// is re-issued after backoff (default 2; negative disables retries).
	// Timeouts are not retried — their budget is already spent.
	Retries int
	// RampRetries is the separate, larger budget for connection-refused
	// retries (default 8; negative disables). A refused connection during
	// a cluster's startup ramp — the process is booting, the port is not
	// bound yet — is a timing artifact, not unavailability, so it backs
	// off and retries under this budget instead of immediately counting
	// against availability. Only an operation that exhausts the budget
	// books a transport error.
	RampRetries int
	// RetryBase and RetryMax shape the capped exponential backoff between
	// retries (defaults 10ms and 250ms); each wait is jittered by a
	// seeded uniform factor in [0.5, 1.5) so synchronized workers do not
	// retry in lockstep.
	RetryBase, RetryMax time.Duration
	// Deadline, when positive, is each request's time budget: sent to the
	// server as X-Deadline and enforced client-side via the request
	// context.
	Deadline time.Duration
	// Registry, when set, receives the loadgen.latency_ns histogram; the
	// Result carries latency quantiles either way.
	Registry *telemetry.Registry
}

func (c *Config) setDefaults() error {
	if len(c.Targets) == 0 {
		if c.BaseURL == "" {
			return fmt.Errorf("loadgen: BaseURL or Targets required")
		}
		c.Targets = []string{c.BaseURL}
	}
	c.Targets = slices.Clone(c.Targets) // trimmed below; the caller's slice stays as given
	for i, t := range c.Targets {
		if t == "" {
			return fmt.Errorf("loadgen: empty target at index %d", i)
		}
		c.Targets[i] = strings.TrimSuffix(t, "/")
	}
	if c.Workers == 0 {
		c.Workers = 1
	}
	if c.Ops == 0 {
		c.Ops = 10000
	}
	if c.Workers < 0 || c.Ops < 0 {
		return fmt.Errorf("loadgen: Workers=%d Ops=%d must be positive", c.Workers, c.Ops)
	}
	if c.Batch < 0 {
		return fmt.Errorf("loadgen: Batch=%d must be >= 0", c.Batch)
	}
	if c.Retries == 0 {
		c.Retries = 2
	}
	if c.Retries < 0 {
		c.Retries = 0
	}
	if c.RampRetries == 0 {
		c.RampRetries = 8
	}
	if c.RampRetries < 0 {
		c.RampRetries = 0
	}
	if c.RetryBase <= 0 {
		c.RetryBase = 10 * time.Millisecond
	}
	if c.RetryMax <= 0 {
		c.RetryMax = 250 * time.Millisecond
	}
	if c.Deadline < 0 {
		return fmt.Errorf("loadgen: Deadline must be >= 0, got %v", c.Deadline)
	}
	return c.Mix.Validate()
}

// Result aggregates one load run.
type Result struct {
	Ops      uint64        `json:"ops"`
	Errors   uint64        `json:"errors"`
	Hits     uint64        `json:"hits"`
	Misses   uint64        `json:"misses"`
	Denies   uint64        `json:"denies"`
	Duration time.Duration `json:"duration_ns"`
	// The failure taxonomy, by final per-operation outcome after retries:
	// Sheds are 503 answers (overload protection working as designed, so
	// excluded from Errors), Timeouts are 504s plus client-side deadline
	// expiries, Transport connection-level failures, Server5xx any other
	// 5xx. Errors aggregates Timeouts + Transport + Server5xx. Retries
	// counts re-issued requests (attempts beyond each operation's first).
	Sheds     uint64 `json:"sheds"`
	Timeouts  uint64 `json:"timeouts"`
	Transport uint64 `json:"transport_errors"`
	Server5xx uint64 `json:"server_5xx"`
	Retries   uint64 `json:"retries"`
	// Refused counts connection-refused attempts retried under the ramp
	// budget (RampRetries). They are visible here but count against
	// availability only when an operation exhausts that budget (it then
	// books a transport error).
	Refused uint64 `json:"refused_retries"`
	// PerTarget attributes traffic to each driven server (present only
	// for multi-target runs). Counters are attempt-level — each attempt
	// is booked against the target that actually answered (or failed) —
	// so after a node dies its column stops growing and the survivors'
	// columns absorb the load.
	PerTarget map[string]*TargetResult `json:"per_target,omitempty"`
	// Client-observed request latency in microseconds: the mean plus
	// quantiles interpolated from the log2 nanosecond histogram.
	MeanLatencyUS float64 `json:"mean_latency_us"`
	P50LatencyUS  float64 `json:"p50_latency_us"`
	P90LatencyUS  float64 `json:"p90_latency_us"`
	P99LatencyUS  float64 `json:"p99_latency_us"`
	P999LatencyUS float64 `json:"p999_latency_us"`
}

// TargetResult is one target's attempt-level attribution in a
// multi-target run.
type TargetResult struct {
	// Answers counts definitive answers (2xx/404) this target served.
	Answers uint64 `json:"answers"`
	// Hits/Misses split this target's definitive GET answers.
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
	// Sheds counts 503 answers; Errors counts failed attempts (timeout,
	// transport, refused, 5xx) against this target.
	Sheds  uint64 `json:"sheds"`
	Errors uint64 `json:"errors"`
	// HitRate is Hits/(Hits+Misses), 0 when undefined.
	HitRate float64 `json:"hit_rate"`
	// Client-observed latency for requests this target answered.
	MeanLatencyUS float64 `json:"mean_latency_us"`
	P99LatencyUS  float64 `json:"p99_latency_us"`
}

// HitRate returns Hits/(Hits+Misses) — the client-observed GET hit rate,
// over definitive answers only (sheds, timeouts and errors are excluded).
func (r Result) HitRate() float64 {
	if r.Hits+r.Misses == 0 {
		return 0
	}
	return float64(r.Hits) / float64(r.Hits+r.Misses)
}

// Availability returns the fraction of operations that received an
// orderly answer — success or an explicit shed — as opposed to a
// timeout, transport failure, or server error. An overloaded server that
// sheds cleanly is available; one that times out or 500s is not.
func (r Result) Availability() float64 {
	total := r.Ops + r.Sheds + r.Errors
	if total == 0 {
		return 1
	}
	return float64(r.Ops+r.Sheds) / float64(total)
}

// Throughput returns operations per second.
func (r Result) Throughput() float64 {
	if r.Duration <= 0 {
		return 0
	}
	return float64(r.Ops) / r.Duration.Seconds()
}

// finite clamps non-finite values (NaN, ±Inf — what an unguarded zero
// denominator produces) to 0. encoding/json refuses to encode NaN or Inf
// and fails the whole document, so every derived ratio passes through
// here before entering the JSON report.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// MarshalJSON emits the raw counters plus the derived ratios — hit_rate,
// availability, throughput_ops_s — precomputed and NaN-proofed, so the
// `pdpload -json` report stays valid JSON even for an all-shed or
// zero-operation run.
func (r Result) MarshalJSON() ([]byte, error) {
	type plain Result // drops the method set, avoiding recursion
	return json.Marshal(struct {
		plain
		HitRate        float64 `json:"hit_rate"`
		Availability   float64 `json:"availability"`
		ThroughputOpsS float64 `json:"throughput_ops_s"`
	}{
		plain:          plain(r),
		HitRate:        finite(r.HitRate()),
		Availability:   finite(r.Availability()),
		ThroughputOpsS: finite(r.Throughput()),
	})
}

// Run replays the mix until every worker finishes its ops or ctx is
// cancelled. Failures are counted, not fatal (the harness's
// graceful-degradation convention).
func Run(ctx context.Context, cfg Config) (Result, error) {
	if err := cfg.setDefaults(); err != nil {
		return Result{}, err
	}
	hist := cfg.Registry.Histogram("loadgen.latency_ns")
	if hist == nil {
		// No registry: keep a private histogram so the Result still
		// reports quantiles.
		hist = &telemetry.Histogram{}
	}

	var (
		mu  sync.Mutex
		res Result
	)
	// Per-target attribution for multi-target runs: counters merge under
	// mu at worker exit; the latency histograms are atomic, so workers
	// observe into the shared ones directly.
	var thists map[string]*telemetry.Histogram
	if len(cfg.Targets) > 1 {
		res.PerTarget = make(map[string]*TargetResult, len(cfg.Targets))
		thists = make(map[string]*telemetry.Histogram, len(cfg.Targets))
		for _, tgt := range cfg.Targets {
			res.PerTarget[tgt] = &TargetResult{}
			thists[tgt] = &telemetry.Histogram{}
		}
	}
	// The default transport keeps only 2 idle connections per host, so any
	// run with more than 2 workers would churn a fresh TCP connection on
	// nearly every request and measure connection setup instead of the
	// server. Size the pool to the worker count — each worker has at most
	// one request in flight — so every request after warmup reuses a
	// kept-alive connection, and cap total connections per host at the same
	// number so a retry storm cannot dial past the steady-state need.
	tr := &http.Transport{
		Proxy:               http.ProxyFromEnvironment,
		MaxIdleConns:        cfg.Workers * 2,
		MaxIdleConnsPerHost: cfg.Workers,
		MaxConnsPerHost:     cfg.Workers,
		IdleConnTimeout:     90 * time.Second,
	}
	client := &http.Client{Transport: tr, Timeout: 10 * time.Second}
	defer tr.CloseIdleConnections()
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			stream := workload.NewServiceStream(cfg.Mix, cfg.Seed+uint64(w))
			worker := newWorker(client, hist, thists, &cfg, cfg.Seed+uint64(w), w)
			size := max(cfg.Batch, 1) // the per-op protocol is a group of one
			batch := make([]workload.Op, 0, size)
			for i := 0; i < cfg.Ops && ctx.Err() == nil; i++ {
				batch = append(batch, stream.Next())
				if len(batch) == size {
					worker.doBatch(ctx, batch)
					batch = batch[:0]
				}
			}
			if len(batch) > 0 && ctx.Err() == nil {
				worker.doBatch(ctx, batch)
			}
			mu.Lock()
			res.Ops += worker.ops
			res.Hits += worker.hits
			res.Misses += worker.misses
			res.Denies += worker.denies
			res.Sheds += worker.sheds
			res.Timeouts += worker.timeouts
			res.Transport += worker.transport
			res.Server5xx += worker.server5xx
			res.Retries += worker.retries
			res.Refused += worker.refused
			for tgt, ts := range worker.tstats {
				tr := res.PerTarget[tgt]
				tr.Answers += ts.answers
				tr.Hits += ts.hits
				tr.Misses += ts.misses
				tr.Sheds += ts.sheds
				tr.Errors += ts.errors
			}
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	res.Duration = time.Since(start)
	res.Errors = res.Timeouts + res.Transport + res.Server5xx
	for tgt, tr := range res.PerTarget {
		if tr.Hits+tr.Misses > 0 {
			tr.HitRate = finite(float64(tr.Hits) / float64(tr.Hits+tr.Misses))
		}
		if th := thists[tgt]; th.Count() > 0 {
			tr.MeanLatencyUS = th.Mean() / 1e3
			tr.P99LatencyUS = th.Quantile(0.99) / 1e3
		}
	}
	if hist.Count() > 0 {
		q := hist.Summary()
		res.MeanLatencyUS = hist.Mean() / 1e3
		res.P50LatencyUS = q.P50 / 1e3
		res.P90LatencyUS = q.P90 / 1e3
		res.P99LatencyUS = q.P99 / 1e3
		res.P999LatencyUS = q.P999 / 1e3
	}
	return res, ctx.Err()
}

// outcome classifies one operation's final fate.
type outcome int

const (
	outOK        outcome = iota // a definitive answer (2xx/404)
	outShed                     // 503 after retries: shed by overload protection
	outTimeout                  // 504, or the client-side deadline expired
	outTransport                // connection-level failure after retries
	outServer                   // any other 5xx
	outRefused                  // connection refused: the target is not (yet) listening
)

// tstat is one worker's attempt-level attribution for one target.
type tstat struct {
	answers, hits, misses, sheds, errors uint64
}

// worker is one client goroutine's state.
type worker struct {
	client  *http.Client
	targets []string
	ti      int // current target index (rotates on retryable failures)
	hist    *telemetry.Histogram
	thists  map[string]*telemetry.Histogram // shared, atomic (nil single-target)
	tstats  map[string]*tstat               // private, merged at exit
	buf     []byte
	rng     *trace.RNG

	// perOp selects the /kv/ wire protocol (Batch <= 1) over POST /batch.
	perOp bool
	// The last answer's body, its rows (decoded from /batch, normalised
	// from /kv/) and their values.
	resp  bytes.Buffer
	rows  []batchwire.Row
	arena []byte

	maxRetries          int
	rampRetries         int
	retryBase, retryMax time.Duration
	deadline            time.Duration

	ops, hits, misses, denies             uint64
	sheds, timeouts, transport, server5xx uint64
	retries, refused                      uint64
}

func newWorker(client *http.Client, hist *telemetry.Histogram, thists map[string]*telemetry.Histogram, cfg *Config, seed uint64, idx int) *worker {
	w := &worker{
		client:      client,
		targets:     cfg.Targets,
		ti:          idx % len(cfg.Targets), // spread workers across targets
		hist:        hist,
		thists:      thists,
		buf:         make([]byte, 1<<16),
		rng:         trace.NewRNG(seed ^ 0xA11A11A1),
		perOp:       cfg.Batch <= 1,
		maxRetries:  cfg.Retries,
		rampRetries: cfg.RampRetries,
		retryBase:   cfg.RetryBase,
		retryMax:    cfg.RetryMax,
		deadline:    cfg.Deadline,
	}
	if len(cfg.Targets) > 1 {
		w.tstats = make(map[string]*tstat, len(cfg.Targets))
		for _, t := range cfg.Targets {
			w.tstats[t] = &tstat{}
		}
	}
	return w
}

// target returns the worker's current target; rotate moves to the next
// one (multi-target failover on retryable failures).
func (w *worker) target() string { return w.targets[w.ti] }

func (w *worker) rotate() {
	if len(w.targets) > 1 {
		w.ti = (w.ti + 1) % len(w.targets)
	}
}

// book counts the final outcome of n operations whose request failed.
func (w *worker) book(out outcome, n int) {
	switch out {
	case outShed:
		w.sheds += uint64(n)
	case outTimeout:
		w.timeouts += uint64(n)
	case outTransport:
		w.transport += uint64(n)
	case outServer:
		w.server5xx += uint64(n)
	}
}

var kvMethods = [...]string{kvcache.BatchGet: http.MethodGet,
	kvcache.BatchPut: http.MethodPut, kvcache.BatchDelete: http.MethodDelete}

// kvStatus is the row status a definitive /kv/ answer stands for, "" for
// one outside the route's vocabulary.
func kvStatus(method string, code int, xcache string) string {
	ok := code >= 200 && code < 300
	switch {
	case method == http.MethodGet && code == http.StatusOK:
		return "hit"
	case method == http.MethodGet && code == http.StatusNotFound:
		return "miss"
	case method == http.MethodPut && ok && xcache == "deny":
		return "denied"
	case method == http.MethodPut && ok:
		return "stored"
	case method == http.MethodDelete && ok:
		return "deleted"
	case method == http.MethodDelete && code == http.StatusNotFound:
		return "not_found"
	}
	return ""
}

// exchange ships ops the way the worker's wire protocol carries them — one
// POST /batch, or the /kv/ request of the single op a per-op group holds —
// and returns one row per op either way (they hold until the next
// exchange). Around the request runs the retry loop: sheds and transport
// failures back off (capped exponential, seeded jitter) and retry up to
// maxRetries times; timeouts and server errors return immediately.
// Connection-refused failures — a node that has not bound its port yet,
// or just died — retry under the separate, larger rampRetries budget
// without consuming the regular one, and each retryable failure rotates
// to the next target so a multi-target run fails over instead of
// hammering the dead member. Every attempt is attributed to the target it
// went to. The transport may still read a body after Do returned, so it is
// built anew for every exchange.
func (w *worker) exchange(ctx context.Context, ops []kvcache.BatchOp) ([]batchwire.Row, outcome) {
	method, path, body, n := http.MethodPost, "/batch", []byte(nil), len(ops)
	if w.perOp {
		method, path, body = kvMethods[ops[0].Kind], "/kv/"+ops[0].Key, ops[0].Value
	} else {
		body = batchwire.AppendOps(nil, ops)
	}
	for attempt, ramp := 0, 0; ; {
		tgt := w.target()
		rows, out := w.attempt(ctx, tgt, method, path, body, n)
		if ts := w.tstats[tgt]; ts != nil {
			ts.attribute(rows, out, uint64(n))
		}
		if out == outOK {
			return rows, outOK
		}
		if out == outRefused {
			w.refused++
			if ramp >= w.rampRetries || ctx.Err() != nil {
				// Ramp budget exhausted: the target really is gone, and
				// from here the refusal is plain unavailability.
				return nil, outTransport
			}
			ramp++
			w.rotate()
			w.sleepBackoff(ramp)
			continue
		}
		retryable := out == outShed || out == outTransport
		if !retryable || attempt >= w.maxRetries || ctx.Err() != nil {
			return nil, out
		}
		attempt++
		w.retries++
		w.rotate()
		w.sleepBackoff(attempt)
	}
}

// sleepBackoff waits retryBase<<attempt, capped at retryMax, jittered by
// a seeded uniform factor in [0.5, 1.5).
func (w *worker) sleepBackoff(attempt int) {
	d := w.retryBase << uint(attempt)
	if d > w.retryMax || d <= 0 {
		d = w.retryMax
	}
	d = time.Duration(float64(d) * (0.5 + w.rng.Float64()))
	time.Sleep(d)
}

// attribute books one attempt of n operations against the target it went
// to: row by row for a definitive answer, n sheds or errors otherwise.
func (ts *tstat) attribute(rows []batchwire.Row, out outcome, n uint64) {
	switch {
	case out == outShed:
		ts.sheds += n
	case out != outOK:
		ts.errors += n
	}
	for _, row := range rows {
		switch row.Status {
		case "hit":
			ts.answers++
			ts.hits++
		case "miss":
			ts.answers++
			ts.misses++
		case "shed":
			ts.sheds++
		case "too_large", "error":
			ts.errors++
		default:
			ts.answers++
		}
	}
}

// attempt issues a single request against tgt and classifies the answer.
// A definitive one yields exactly n rows: a /batch answer must be a 200
// whose body decodes to them, a /kv/ answer is normalised to one.
// Latency is observed amortized — wall time divided by n, once per op — so
// the histogram stays per-operation comparable across both protocols.
func (w *worker) attempt(ctx context.Context, tgt, method, path string, body []byte, n int) ([]batchwire.Row, outcome) {
	if w.deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, w.deadline)
		defer cancel()
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, tgt+path, rd)
	if err != nil {
		return nil, outTransport
	}
	if !w.perOp {
		req.Header.Set("Content-Type", "application/json")
	}
	if w.deadline > 0 {
		req.Header.Set("X-Deadline", w.deadline.String())
	}
	t0 := time.Now()
	resp, err := w.client.Do(req)
	if err != nil {
		switch {
		case isTimeout(err):
			return nil, outTimeout
		case errors.Is(err, syscall.ECONNREFUSED):
			return nil, outRefused
		default:
			return nil, outTransport
		}
	}
	w.resp.Reset()
	_, rerr := w.resp.ReadFrom(resp.Body)
	resp.Body.Close()
	per := uint64(time.Since(t0).Nanoseconds()) / uint64(n)
	w.hist.ObserveN(per, uint64(n))
	if th := w.thists[tgt]; th != nil {
		th.ObserveN(per, uint64(n))
	}
	switch code := resp.StatusCode; {
	case code == http.StatusServiceUnavailable:
		return nil, outShed
	case code == http.StatusGatewayTimeout:
		return nil, outTimeout
	case code >= 500:
		return nil, outServer
	case w.perOp:
		// A status outside the op's vocabulary, like the non-200 of a batch
		// below, is a 4xx the client should never have provoked: the
		// exchange misbehaving.
		status := kvStatus(method, code, resp.Header.Get("X-Cache"))
		if status == "" {
			return nil, outServer
		}
		w.rows = append(w.rows[:0], batchwire.Row{Status: status})
		return w.rows, outOK
	case code != http.StatusOK:
		return nil, outServer
	case rerr != nil:
		return nil, outTransport
	}
	if w.rows, w.arena, err = batchwire.ParseRows(w.resp.Bytes(), w.rows, w.arena); err != nil || len(w.rows) != n {
		return nil, outServer
	}
	return w.rows, outOK
}

// isTimeout reports whether a client-side error is a deadline expiry
// rather than a connection failure.
func isTimeout(err error) bool {
	if errors.Is(err, context.DeadlineExceeded) {
		return true
	}
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}
