package cluster

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"pdp/internal/batchwire"
	"pdp/internal/kvcache"
	"pdp/internal/resilience"
	"pdp/internal/telemetry"
)

// Config parameterizes a cluster node.
type Config struct {
	// Self is this node's id — its advertised base URL, exactly as it
	// appears in Peers (e.g. "http://127.0.0.1:8081").
	Self string
	// Peers is the static member list: every node's base URL, including
	// Self. Order does not matter; every node must be given the same set.
	Peers []string

	// ProbeEvery is the health-probe period per peer (default 1s).
	ProbeEvery time.Duration
	// ProbeTimeout bounds one /healthz probe (default 500ms).
	ProbeTimeout time.Duration
	// EjectAfter ejects a peer from the ring after that many consecutive
	// failures, probe rounds and forwarded exchanges alike (default 3);
	// RejoinAfter rejoins it after that many consecutive answers (default 2).
	EjectAfter, RejoinAfter int

	// FetchTimeout bounds one forwarded exchange to a peer (default 2s).
	FetchTimeout time.Duration
	// MaxValueBytes caps the value a FetchGet answer may carry (default
	// 1 MiB + headroom).
	MaxValueBytes int64

	// Registry and Journal receive cluster telemetry (both optional):
	// per-peer labeled request/error/latency/up series, routing
	// counters, and one MembershipRecord per ring transition.
	Registry *telemetry.Registry
	Journal  *telemetry.Journal
}

func (c *Config) setDefaults() error {
	if c.Self == "" {
		return fmt.Errorf("cluster: Self required")
	}
	if len(c.Peers) == 0 {
		return fmt.Errorf("cluster: Peers required")
	}
	if c.ProbeEvery == 0 {
		c.ProbeEvery = time.Second
	}
	if c.ProbeEvery < 0 {
		return fmt.Errorf("cluster: ProbeEvery must be positive, got %v", c.ProbeEvery)
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = 500 * time.Millisecond
	}
	if c.EjectAfter == 0 {
		c.EjectAfter = 3
	}
	if c.RejoinAfter == 0 {
		c.RejoinAfter = 2
	}
	if c.EjectAfter < 0 || c.RejoinAfter < 0 {
		return fmt.Errorf("cluster: EjectAfter=%d RejoinAfter=%d must be positive", c.EjectAfter, c.RejoinAfter)
	}
	if c.FetchTimeout <= 0 {
		c.FetchTimeout = 2 * time.Second
	}
	if c.MaxValueBytes <= 0 {
		c.MaxValueBytes = 1<<20 + 4096
	}
	return nil
}

// Cluster is one node's view of the tier: the shared ring, a client per
// remote peer, the singleflight fill table, and the probe loop that,
// with the forwarded exchanges, drives ejection/rejoin.
type Cluster struct {
	cfg    Config
	ring   *Ring
	peers  map[string]*Peer // remote members only
	flight Flight

	probeStop func()
	probeHC   *http.Client

	mProxied *telemetry.Counter
	mFanout  *telemetry.Counter
	mCoal    *telemetry.Counter
	mFills   *telemetry.Counter
	mFallbk  *telemetry.Counter
	mLoops   *telemetry.Counter
	mEjects  *telemetry.Counter
	mRejoins *telemetry.Counter
}

// New validates cfg, builds the ring and the peer clients. Start begins
// probing; until then every configured member counts alive.
func New(cfg Config) (*Cluster, error) {
	if err := cfg.setDefaults(); err != nil {
		return nil, err
	}
	ring, err := NewRing(ringVNodes, cfg.Peers)
	if err != nil {
		return nil, err
	}
	if ring.index(cfg.Self) < 0 {
		return nil, fmt.Errorf("cluster: Self %q not in Peers %v", cfg.Self, ring.Members())
	}
	// One pooled transport for all peers: proxied traffic reuses
	// connections instead of paying a dial per request. Both the idle and
	// the hard per-host caps are explicit — the default MaxConnsPerHost of
	// 0 (unlimited) lets a fan-out burst dial far past the idle pool, and
	// every connection past MaxIdleConnsPerHost is then torn down on
	// release, so the next burst dials again. Matching the caps keeps the
	// connection count flat across batch waves.
	tr := &http.Transport{
		MaxIdleConns:        256,
		MaxIdleConnsPerHost: 64,
		MaxConnsPerHost:     64,
		IdleConnTimeout:     90 * time.Second,
	}
	reg := cfg.Registry
	c := &Cluster{
		cfg:     cfg,
		ring:    ring,
		peers:   make(map[string]*Peer),
		probeHC: &http.Client{Transport: tr, Timeout: cfg.ProbeTimeout},

		mProxied: reg.Counter("cluster.proxied"),
		mFanout:  reg.Counter("cluster.batch_fanout"),
		mCoal:    reg.Counter("cluster.singleflight_coalesced"),
		mFills:   reg.Counter("cluster.singleflight_fills"),
		mFallbk:  reg.Counter("cluster.fallback_local"),
		mLoops:   reg.Counter("cluster.hop_terminated"),
		mEjects:  reg.Counter("cluster.ring_ejections"),
		mRejoins: reg.Counter("cluster.ring_rejoins"),
	}
	for _, m := range ring.Members() {
		if m == cfg.Self {
			continue
		}
		c.peers[m] = newPeer(m, tr, cfg.FetchTimeout, reg)
	}
	// members_alive and peer_up are views of the ring, liveness's one owner.
	reg.View(func(m telemetry.Samples) {
		m.Gauge("cluster.members_alive", float64(ring.AliveCount()))
		for id := range c.peers {
			up := 0.0
			if ring.IsAlive(id) {
				up = 1
			}
			m.Gauge("cluster.peer_up{"+telemetry.Label("peer", id)+"}", up)
		}
	})
	return c, nil
}

// Self returns this node's id.
func (c *Cluster) Self() string { return c.cfg.Self }

// Ring returns the node's ring (shared, concurrency-safe).
func (c *Cluster) Ring() *Ring { return c.ring }

// Owner resolves key's owner. local reports owner == Self; ok is false
// only when every member (including Self) is marked dead, which the
// probe loop never does to Self.
func (c *Cluster) Owner(key string) (owner string, local, ok bool) {
	owner, ok = c.ring.Owner(key)
	return owner, ok && owner == c.cfg.Self, ok
}

// --- forwarding --------------------------------------------------------

// FetchGet forwards a /kv/ GET for key to its owner as a one-op sub-batch,
// through the singleflight fill table: N concurrent callers for one
// (owner, key) pair cost exactly one peer exchange. The returned response
// is the owner's /batch answer (one row on 200) and is shared — read-only.
func (c *Cluster) FetchGet(ctx context.Context, owner, key string) (*PeerResponse, error) {
	p := c.peers[owner]
	if p == nil {
		return nil, fmt.Errorf("cluster: no client for %q", owner)
	}
	c.mProxied.Inc()
	resp, err, shared := c.flight.Do(owner+"\x00"+key, func() (*PeerResponse, error) {
		// The fetch is shared by every coalesced caller, so it must not
		// die with the first caller's context; only the peer client's
		// FetchTimeout budget bounds it, and a timeout counts against
		// the peer.
		c.mFills.Inc()
		body := batchwire.AppendOps(nil, []kvcache.BatchOp{{Kind: kvcache.BatchGet, Key: key}})
		// Base64 inflates the value by 4/3; the rest of the row is small.
		return c.exchange(context.WithoutCancel(ctx), p, body, c.cfg.MaxValueBytes*4/3+512)
	})
	if shared {
		c.mCoal.Inc()
	}
	return resp, err
}

// ForwardBatch posts a JSON-encoded sub-batch to owner's /batch route —
// one leg of the owner-split scatter-gather, or a forwarded /kv/ mutation
// as a sub-batch of one. maxResp bounds the response body; the caller
// scales it by the sub-batch size. Batches are never coalesced (they
// carry mutations).
func (c *Cluster) ForwardBatch(ctx context.Context, owner string, body []byte, maxResp int64) (*PeerResponse, error) {
	p := c.peers[owner]
	if p == nil {
		return nil, fmt.Errorf("cluster: no client for %q", owner)
	}
	c.mFanout.Inc()
	return c.exchange(ctx, p, body, maxResp)
}

// FallbackLocal books one proxy failure answered from the local cache.
func (c *Cluster) FallbackLocal() { c.mFallbk.Inc() }

// HopTerminated books one forwarded /kv/ request or /batch op served locally
// despite a divergent ring view — the loop-prevention path.
func (c *Cluster) HopTerminated() { c.mLoops.Inc() }

// --- membership --------------------------------------------------------

// Start launches the health-probe loop; Stop (or ctx cancellation) ends
// it. Probing is what brings an ejected peer back: the ring routes no
// exchange to it, so only probe rounds can make up its RejoinAfter answers.
func (c *Cluster) Start(ctx context.Context) {
	c.probeStop = resilience.Every(ctx, c.cfg.ProbeEvery, c.probeRound)
}

// Stop ends the probe loop (idempotent; safe before Start).
func (c *Cluster) Stop() {
	if c.probeStop != nil {
		c.probeStop()
	}
}

// probeRound probes every remote member once, in parallel (a dead peer
// costs a full ProbeTimeout; serially, two dead peers would delay the
// detection of a third).
func (c *Cluster) probeRound(ctx context.Context) {
	var wg sync.WaitGroup
	for _, p := range c.peers {
		wg.Add(1)
		go func(p *Peer) {
			defer wg.Done()
			c.probeOne(ctx, p)
		}(p)
	}
	wg.Wait()
}

// probeOne GETs the peer's /healthz — the liveness route that kvserver
// keeps exempt from the admission gate, so an overloaded-but-alive peer
// still answers. A failed try is retried once after ProbeTimeout/4, so a
// single dropped packet doesn't start an ejection streak. A round cut
// short by Stop counts nothing.
func (c *Cluster) probeOne(ctx context.Context, p *Peer) {
	ok := c.healthz(ctx, p)
	if !ok {
		select {
		case <-ctx.Done():
			return
		case <-time.After(c.cfg.ProbeTimeout / 4):
		}
		ok = c.healthz(ctx, p)
	}
	if ctx.Err() != nil {
		return
	}
	c.observe(p, ok)
}

// healthz is one probe try; only a 200 answer counts.
func (c *Cluster) healthz(ctx context.Context, p *Peer) bool {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, p.id+"/healthz", nil)
	if err != nil {
		return false
	}
	resp, err := c.probeHC.Do(req)
	if err != nil {
		return false
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// observe is the one liveness detector: every probe round and every
// forwarded exchange reports whether p answered, and only here does the
// ring change. EjectAfter consecutive failures eject p — its keys move to
// the next alive members — and RejoinAfter consecutive answers bring it
// back. A healthy exchange costs one uncontended per-peer lock.
func (c *Cluster) observe(p *Peer, ok bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if ok {
		p.okRun, p.failRun = p.okRun+1, 0
	} else {
		p.failRun, p.okRun = p.failRun+1, 0
	}
	var event string
	switch down := !c.ring.IsAlive(p.id); {
	case ok && down && p.okRun >= c.cfg.RejoinAfter:
		c.ring.Rejoin(p.id)
		c.mRejoins.Inc()
		event = "rejoin"
	case !ok && !down && p.failRun >= c.cfg.EjectAfter:
		c.ring.Eject(p.id)
		c.mEjects.Inc()
		event = "eject"
	default:
		return
	}
	c.cfg.Journal.Append(telemetry.MembershipRecord{
		Kind: telemetry.KindMembership, Event: event, Peer: p.id,
		Alive: c.ring.AliveCount(), Members: len(c.ring.Members()),
		Streak: p.okRun + p.failRun, // the run that decided; the other is 0
	})
}

// --- introspection -----------------------------------------------------

// MemberView is one member's row in the /cluster/ring view.
type MemberView struct {
	ID    string `json:"id"`
	Self  bool   `json:"self,omitempty"`
	Alive bool   `json:"alive"`
}

// View is the /cluster/ring JSON schema.
type View struct {
	Self    string       `json:"self"`
	Seed    uint64       `json:"seed"`
	VNodes  int          `json:"vnodes"`
	Alive   int          `json:"alive"`
	Members []MemberView `json:"members"`
	// Owner is the resolved owner for the ?key= query (omitted without
	// one).
	Owner string `json:"owner,omitempty"`
	// Proxied/Coalesced/FallbackLocal/HopTerminated are this node's
	// routing counters: Proxied counts /kv/ GETs forwarded through
	// FetchGet, Coalesced those that rode another's fetch. BatchFanout
	// counts the sub-batches ForwardBatch sent: the legs of the owner-split
	// scatter-gather, and each forwarded /kv/ mutation (a sub-batch of one).
	Proxied       uint64 `json:"proxied"`
	BatchFanout   uint64 `json:"batch_fanout"`
	Coalesced     uint64 `json:"singleflight_coalesced"`
	FallbackLocal uint64 `json:"fallback_local"`
	HopTerminated uint64 `json:"hop_terminated"`
	Ejections     uint64 `json:"ring_ejections"`
	Rejoins       uint64 `json:"ring_rejoins"`
}

// StatsView assembles the node's cluster view; key, when non-empty, adds
// its resolved owner.
func (c *Cluster) StatsView(key string) View {
	v := View{
		Self:          c.cfg.Self,
		Seed:          ringSeed,
		VNodes:        ringVNodes,
		Alive:         c.ring.AliveCount(),
		Proxied:       c.mProxied.Value(),
		BatchFanout:   c.mFanout.Value(),
		Coalesced:     c.mCoal.Value(),
		FallbackLocal: c.mFallbk.Value(),
		HopTerminated: c.mLoops.Value(),
		Ejections:     c.mEjects.Value(),
		Rejoins:       c.mRejoins.Value(),
	}
	for _, m := range c.ring.Members() {
		v.Members = append(v.Members, MemberView{ID: m, Self: m == c.cfg.Self, Alive: c.ring.IsAlive(m)})
	}
	if key != "" {
		if owner, ok := c.ring.Owner(key); ok {
			v.Owner = owner
		}
	}
	return v
}
