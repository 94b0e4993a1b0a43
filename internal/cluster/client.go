package cluster

import (
	"bytes"
	"context"
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

// PeerResponse is one peer exchange's result, buffered so a singleflight
// fetch can hand the same response to every coalesced caller.
type PeerResponse struct {
	// Status is the peer's HTTP status code.
	Status int
	// Body is the full response body (batchwire rows on 200).
	Body []byte
}

// Peer is the client side of one cluster member: a pooled HTTP client,
// the member's liveness evidence, and per-peer labeled telemetry.
type Peer struct {
	id string // node id == base URL, e.g. "http://127.0.0.1:8081"
	hc *http.Client

	// The consecutive failed and answered probes and exchanges; only
	// Cluster.observe writes them and moves this member in the ring, both
	// under mu.
	mu      sync.Mutex
	failRun int
	okRun   int

	mReqs *telemetry.Counter
	mErrs *telemetry.Counter
	hLat  *telemetry.Histogram
}

// newPeer builds the client for one member. The http.Client shares the
// cluster's pooled transport; timeout is the per-exchange cap (the
// request ctx may shorten it further).
func newPeer(id string, tr *http.Transport, timeout time.Duration, reg *telemetry.Registry) *Peer {
	lbl := telemetry.Label("peer", id)
	return &Peer{
		id: id,
		hc: &http.Client{Transport: tr, Timeout: timeout},

		mReqs: reg.Counter("cluster.peer_requests{" + lbl + "}"),
		mErrs: reg.Counter("cluster.peer_errors{" + lbl + "}"),
		hLat:  reg.Histogram("cluster.peer_latency_ns{" + lbl + "}"),
	}
}

// exchange posts one batchwire sub-batch to p's /batch route — the only
// thing one node ever sends another — and reports the outcome to observe:
// a transport failure, an oversized answer or a 5xx counts against the
// peer; any other answer, a 503 shed included (the peer is alive, just
// busy), counts for it. A failure after the caller's ctx is done (the
// client hung up or its deadline passed) says nothing about the peer and
// is not reported; the peer's own budget, the http.Client Timeout, is.
func (c *Cluster) exchange(ctx context.Context, p *Peer, body []byte, maxResp int64) (*PeerResponse, error) {
	resp, err := p.post(ctx, body, maxResp)
	if err != nil && ctx.Err() != nil {
		return resp, err
	}
	ok := err == nil && (resp.Status < 500 || resp.Status == http.StatusServiceUnavailable)
	if !ok {
		p.mErrs.Inc()
	}
	c.observe(p, ok)
	return resp, err
}

// post is the exchange's HTTP round trip: the hop header (the peer serves
// what it receives locally, so forwarding is capped at one hop), the
// caller's request id, the timed Do, and a read bounded by maxResp.
func (p *Peer) post(ctx context.Context, body []byte, maxResp int64) (*PeerResponse, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, p.id+"/batch", bytes.NewReader(body))
	if err != nil {
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
		return nil, err
	}
	if int64(len(buf)) > maxResp {
		return nil, fmt.Errorf("cluster: peer %s response exceeds %d bytes", p.id, maxResp)
	}
	return &PeerResponse{Status: resp.StatusCode, Body: buf}, nil
}
