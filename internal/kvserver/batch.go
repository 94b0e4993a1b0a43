package kvserver

// POST /batch: the wire face of the batched serving pipeline (grammar and
// failure semantics: DESIGN.md §8). One batch takes one admission-gate slot
// (a shed answers 503 + Retry-After for the whole batch), locally owned ops
// run through kvcache.ExecBatch, and — with a cluster attached — peer-owned
// ops are split by ring ownership and fanned out as concurrent per-peer
// sub-batches through the pooled peer clients, capped at one hop.
// Partial failure is per op, the rest of the batch proceeds. /kv/ (kv.go)
// runs its one op through the same execBatchLocal/execBatchRemote.

import (
	"errors"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"time"

	"pdp/internal/batchwire"
	"pdp/internal/cluster"
	"pdp/internal/kvcache"
)

// maxPooledBuf is the most scratch a pool takes back, a little above what
// a normal batch needs: past it a buffer is left to the collector, or one
// huge request would leave every pooled buffer at its worst case for good.
const maxPooledBuf = 256 << 10

// opGroup is the ops of one batch that one node executes.
type opGroup struct {
	owner string // "" is this node
	ops   []kvcache.BatchOp
	at    []int32 // ops[j] answers row at[j]
	res   []kvcache.BatchResult
	dst   []byte          // hit values of a local execution
	rows  []batchwire.Row // a peer's answer, its values in arena
	arena []byte
}

// batchScratch is everything one /batch request builds, pooled whole.
// groups[0] is the local group; the others persist per owner across
// requests (owners are ring members, a handful).
type batchScratch struct {
	body, arena, out []byte
	ops              []kvcache.BatchOp
	rows             []batchwire.Row
	groups           []opGroup
}

var batchScratches = sync.Pool{New: func() any { return &batchScratch{groups: make([]opGroup, 1)} }}

// release empties the groups for the next request and pools the scratch,
// unless this request grew it past maxPooledBuf.
func (sc *batchScratch) release() {
	n := cap(sc.body) + cap(sc.arena) + cap(sc.out)
	for i := range sc.groups {
		g := &sc.groups[i]
		g.ops, g.at = g.ops[:0], g.at[:0]
		n += cap(g.dst) + cap(g.arena)
	}
	if n <= maxPooledBuf {
		batchScratches.Put(sc)
	}
}

// group returns owner's group. The pointer holds until the next call.
func (sc *batchScratch) group(owner string) *opGroup {
	for i := range sc.groups {
		if sc.groups[i].owner == owner {
			return &sc.groups[i]
		}
	}
	sc.groups = append(sc.groups, opGroup{owner: owner})
	return &sc.groups[len(sc.groups)-1]
}

// handleBatch decodes, partitions, executes and reassembles one batch.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	t0 := time.Now()
	sc := batchScratches.Get().(*batchScratch)
	defer sc.release()
	var err error
	if sc.body, err = appendLimited(sc.body[:0], r.Body, s.cfg.MaxBatchBytes+1); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if int64(len(sc.body)) > s.cfg.MaxBatchBytes {
		http.Error(w, "batch body too large", http.StatusRequestEntityTooLarge)
		return
	}
	sc.ops, sc.arena, err = batchwire.ParseOps(sc.body, sc.ops, sc.arena, s.cfg.MaxBatchOps, s.cfg.MaxValueBytes)
	n := len(sc.ops)
	switch {
	case errors.Is(err, batchwire.ErrTooManyOps):
		http.Error(w, "batch exceeds max ops", http.StatusRequestEntityTooLarge)
		return
	case err != nil:
		http.Error(w, "bad batch body: "+err.Error(), http.StatusBadRequest)
		return
	case n == 0:
		http.Error(w, "empty batch", http.StatusBadRequest)
		return
	}
	s.mBatches.Inc()
	s.mBatchOps.Add(uint64(n))
	s.hBatchSize.Observe(uint64(n))

	// Partition: per-op validation failures and oversized values resolve
	// immediately (partial failure, the rest proceeds); valid ops split
	// into the local group and per-owner groups. A batch that already
	// hopped once executes entirely locally — the same single-forward cap
	// as /kv/.
	node, hopped := s.clusterNode(w, r)
	sc.rows = slices.Grow(sc.rows[:0], n)[:n] // every row is written below, by exactly one leg
	rows := sc.rows
	for i := range sc.ops {
		op := &sc.ops[i]
		switch {
		case op.Key == "":
			rows[i] = batchwire.Row{Status: batchwire.StatusError, Node: node, Error: "missing key"}
		case op.Kind == batchwire.TooLarge:
			rows[i] = batchwire.Row{Status: batchwire.StatusTooLarge, Node: node}
		case op.Kind == batchwire.Unknown:
			rows[i] = batchwire.Row{Status: batchwire.StatusError, Node: node, Error: "unknown op " + string(op.Value)}
		default:
			g := sc.group(routeKey(s.cfg.Cluster, op.Key, hopped))
			g.ops, g.at = append(g.ops, *op), append(g.at, int32(i))
		}
	}

	// Scatter: one goroutine per owning peer, the local group on this
	// goroutine in parallel. Gather: each leg writes only its own ops'
	// rows, so reassembly is just the shared rows slice in input order.
	var wg sync.WaitGroup
	for i := 1; i < len(sc.groups); i++ {
		if g := &sc.groups[i]; len(g.ops) > 0 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				s.execBatchRemote(r, g, rows)
			}()
		}
	}
	s.execBatchLocal(&sc.groups[0], rows, node)
	wg.Wait()

	// Amortized per-op latency: the batch's wall time booked once per op.
	s.hBatchOpLat.ObserveN(uint64(time.Since(t0).Nanoseconds())/uint64(n), uint64(n))
	sc.out = batchwire.AppendRows(sc.out[:0], rows)
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(sc.out)))
	if _, err := w.Write(sc.out); err != nil {
		s.serveError("/batch", requestID(r), err)
	}
}

// execBatchLocal runs one group through the cache's grouped batch
// executor and books the outcomes, attributed to node. It is the only
// place this package touches the cache's data ops (`make seam`).
func (s *Server) execBatchLocal(g *opGroup, rows []batchwire.Row, node string) {
	if len(g.ops) == 0 {
		return
	}
	g.res = slices.Grow(g.res[:0], len(g.ops))[:len(g.ops)]
	// Hit values alias dst, which the scratch keeps until the response is out.
	g.dst = s.cache.ExecBatch(g.ops, g.res, g.dst[:0])
	for j, res := range g.res {
		rows[g.at[j]] = batchwire.Row{Status: res.Status.String(), Value: res.Value, Node: node}
	}
}

// execBatchRemote forwards one owner's sub-batch. The body is not pooled:
// the transport may still read it after ForwardBatch returns.
func (s *Server) execBatchRemote(r *http.Request, g *opGroup, rows []batchwire.Row) {
	sub := batchwire.AppendOps(nil, g.ops)
	// Base64 inflates each value by 4/3; the rest of a result row is
	// small and bounded.
	maxResp := int64(len(g.ops))*(s.cfg.MaxValueBytes*4/3+512) + 64
	resp, err := s.cfg.Cluster.ForwardBatch(r.Context(), g.owner, sub, maxResp)
	s.peerAnswer(g, rows, resp, err)
}

// peerAnswer maps the owner's answer to a forwarded group back to the
// original rows — the one rule for a peer hop, whichever route it serves.
// 200 with one well-formed row per op is those rows. A shedding peer (503)
// books "shed" per op — the client's retry budget decides what to do.
// Anything else (transport error, timeout, another status, an unparsable or
// short answer) falls back to local execution, the availability bridge
// until EjectAfter failed exchanges or probes eject a dead peer.
func (s *Server) peerAnswer(g *opGroup, rows []batchwire.Row, resp *cluster.PeerResponse, err error) {
	if err == nil {
		switch resp.Status {
		case http.StatusOK:
			g.rows, g.arena, err = batchwire.ParseRows(resp.Body, g.rows, g.arena)
			if err == nil && len(g.rows) == len(g.ops) {
				for j, row := range g.rows {
					rows[g.at[j]] = row
				}
				return
			}
		case http.StatusServiceUnavailable:
			for _, i := range g.at {
				rows[i] = batchwire.Row{Status: batchwire.StatusShed, Node: g.owner}
			}
			return
		}
	}
	cl := s.cfg.Cluster
	cl.FallbackLocal()
	s.execBatchLocal(g, rows, cl.Self())
}
