package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"pdp/internal/telemetry"
)

// HopHeader marks a request already forwarded once by a cluster node.
// A node receiving it serves locally no matter what its ring says, so
// two nodes with momentarily divergent ring views (one has ejected a
// member the other still trusts) bounce a request at most once instead
// of proxying it in a cycle.
const HopHeader = "X-Cluster-Hop"

type ctxKey int

// RequestIDKey is the context key under which the serving middleware keeps
// a request's X-Request-Id. It lives here so the peer hop can carry the id
// to the owner: one client request reads as one id on every node it touches.
const RequestIDKey ctxKey = 0

// ErrPeerDown reports a peer whose breaker is open: recent requests to
// it failed, so callers should fall back (serve locally) instead of
// paying another connect timeout.
var ErrPeerDown = errors.New("cluster: peer breaker open")

// breaker is a per-peer circuit breaker in the servefault style:
// consecutive failures past a threshold open it; after a cooldown one
// probe request is let through (half-open), and its outcome closes or
// re-opens the circuit.
type breaker struct {
	limit    int
	cooldown time.Duration

	mu      sync.Mutex
	fails   int
	open    bool
	until   time.Time
	probing bool
}

// allow reports whether a request may proceed. In the open state it
// admits exactly one probe per cooldown window.
func (b *breaker) allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.open {
		return true
	}
	if b.probing || time.Now().Before(b.until) {
		return false
	}
	b.probing = true
	return true
}

func (b *breaker) success() {
	b.mu.Lock()
	b.fails = 0
	b.open = false
	b.probing = false
	b.mu.Unlock()
}

func (b *breaker) failure() {
	b.mu.Lock()
	b.fails++
	b.probing = false
	if b.fails >= b.limit {
		b.open = true
		b.until = time.Now().Add(b.cooldown)
	}
	b.mu.Unlock()
}

func (b *breaker) isOpen() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.open
}

// PeerResponse is one peer exchange's result, buffered so a singleflight
// fetch can hand the same response to every coalesced caller.
type PeerResponse struct {
	// Status is the peer's HTTP status code.
	Status int
	// Body is the full response body (batchwire rows on 200).
	Body []byte
}

// Peer is the client side of one cluster member: a pooled HTTP client,
// the per-peer breaker, and per-peer labeled telemetry.
type Peer struct {
	id string // node id == base URL, e.g. "http://127.0.0.1:8081"
	hc *http.Client
	br *breaker

	mReqs *telemetry.Counter
	mErrs *telemetry.Counter
	hLat  *telemetry.Histogram
	gOpen *telemetry.Gauge
}

// newPeer builds the client for one member. The http.Client shares the
// cluster's pooled transport; timeout is the per-exchange cap (the
// request ctx may shorten it further).
func newPeer(id string, tr *http.Transport, timeout time.Duration, reg *telemetry.Registry) *Peer {
	lbl := telemetry.Label("peer", id)
	return &Peer{
		id: id,
		hc: &http.Client{Transport: tr, Timeout: timeout},
		br: &breaker{limit: 3, cooldown: 500 * time.Millisecond},

		mReqs: reg.Counter("cluster.peer_requests{" + lbl + "}"),
		mErrs: reg.Counter("cluster.peer_errors{" + lbl + "}"),
		hLat:  reg.Histogram("cluster.peer_latency_ns{" + lbl + "}"),
		gOpen: reg.Gauge("cluster.peer_breaker_open{" + lbl + "}"),
	}
}

// BreakerOpen reports the breaker state (tests and /stats).
func (p *Peer) BreakerOpen() bool { return p.br.isOpen() }

// exchange posts one batchwire sub-batch to the peer's /batch route — the
// only thing one node ever sends another — and buffers the answer: the
// breaker gate, the hop header (the peer serves what it receives locally,
// so forwarding is capped at one hop), the caller's request id, the timed
// Do, and a read bounded by maxResp. Transport failures, oversized answers
// and 5xx count against the breaker; orderly answers (2xx/4xx, and 503
// sheds — the peer is alive, just busy) reset it.
func (p *Peer) exchange(ctx context.Context, body []byte, maxResp int64) (*PeerResponse, error) {
	if !p.br.allow() {
		p.gOpen.Set(1)
		return nil, ErrPeerDown
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, p.id+"/batch", bytes.NewReader(body))
	if err != nil {
		p.br.failure()
		return nil, err
	}
	req.Header.Set(HopHeader, "1")
	req.Header.Set("Content-Type", "application/json")
	if id, _ := ctx.Value(RequestIDKey).(string); id != "" {
		req.Header.Set("X-Request-Id", id)
	}
	p.mReqs.Inc()
	t0 := time.Now()
	resp, err := p.hc.Do(req)
	if err != nil {
		p.fail()
		return nil, err
	}
	var b bytes.Buffer
	if n := resp.ContentLength; n > 0 && n <= maxResp {
		b.Grow(int(n) + bytes.MinRead) // a declared length sizes the buffer once
	}
	_, err = b.ReadFrom(io.LimitReader(resp.Body, maxResp+1))
	buf := b.Bytes()
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	p.hLat.Observe(uint64(time.Since(t0).Nanoseconds()))
	if err != nil {
		p.fail()
		return nil, err
	}
	if int64(len(buf)) > maxResp {
		p.fail()
		return nil, fmt.Errorf("cluster: peer %s response exceeds %d bytes", p.id, maxResp)
	}
	if resp.StatusCode >= 500 && resp.StatusCode != http.StatusServiceUnavailable {
		// A 5xx (other than an orderly shed) is the peer misbehaving.
		p.fail()
	} else {
		p.br.success()
		p.gOpen.Set(0)
	}
	return &PeerResponse{Status: resp.StatusCode, Body: buf}, nil
}

// fail books one failed exchange; it may just have opened the breaker.
func (p *Peer) fail() {
	p.mErrs.Inc()
	p.br.failure()
	p.gOpen.Set(boolGauge(p.br.isOpen()))
}

func boolGauge(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
