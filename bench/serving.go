package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync"
	"time"

	"pdp/internal/kvcache"
	"pdp/internal/workload"
)

// client is one closed-loop caller: it sends its next op only after the
// previous one was answered, the way an app server waits on its cache.
// It replays its trace cyclically from pos.
type client struct {
	id    int
	trace []uint64
	pos   int
	w     *window
	seg   [nSeg]segStat
	cur   int    // segment the client is in; nSeg once the window is over
	now   int64  // last clock reading, ns into the window
	every uint64 // an op is timed when its ordinal is a multiple of this (a power of two)
	opNo  uint64
	// GETs and hits so far, and as they stood after the first hitOps ops:
	// the hit rate is reported over that fixed stretch of the trace, so that
	// it does not depend on how far a faster or slower run got.
	gets, hits             uint64
	done, hitOps           uint64
	prefixGets, prefixHits uint64
	log                    *spanLog // nil in an untraced window
	root                   spanKind // parent of the calls being recorded

	kb, vb, dst []byte

	// What the HTTP targets saw; zero for direct targets.
	node       string // url of the node this client talks to
	shed       uint64 // 503 answers and "shed" rows
	err5xx     uint64
	wireBytes  uint64 // request + response body bytes
	remoteRows uint64 // batch rows executed by another node than ours
}

func (c *client) next() (workload.OpKind, uint64) {
	v := c.trace[c.pos]
	if c.pos++; c.pos == len(c.trace) {
		c.pos = 0
	}
	return unpackOp(v)
}

// end books a timed call that began at t0 into s, and as a span of kind k.
func (c *client) end(s *segStat, t0 int64, k spanKind) {
	c.now = c.w.since()
	s.observe(c.now - t0)
	c.span(t0, k, c.root)
}

func (c *client) span(t0 int64, k, parent spanKind) {
	if c.log != nil {
		c.log.add(span{start: t0, dur: uint32(c.now - t0), req: uint32(c.opNo),
			kind: k, parent: parent, client: uint8(c.id)})
	}
}

// badStatus books an HTTP answer outside the op's vocabulary.
func (c *client) badStatus(code int) error {
	switch {
	case code == http.StatusServiceUnavailable:
		c.shed++
	case code >= 500:
		c.err5xx++
	}
	return fmt.Errorf("unexpected status %d", code)
}

// count books n finished trace ops.
func (c *client) count(n uint64) {
	if c.done += n; c.prefixGets == 0 && c.done >= c.hitOps {
		c.prefixGets, c.prefixHits = c.gets, c.hits
	}
}

// advance moves the client to the segment its clock says it is in.
func (c *client) advance() {
	if c.cur = int(c.now / int64(c.w.segLen)); c.cur > nSeg {
		c.cur = nSeg
	}
}

// kvTarget is where a per-op client sends its ops: a cache, or a server.
type kvTarget interface {
	get(key string, dst []byte) (val []byte, hit bool, err error)
	put(key string, val []byte) error
	del(key string) error
	// kinds names the spans of get-hit, get-miss, put and delete calls.
	kinds() [4]spanKind
}

// runPerOp replays trace ops one call each until the window ends. A GET
// miss is followed by a cache-aside fill PUT, which is issued and timed as
// a request but is not an op.
func (c *client) runPerOp(t kvTarget) {
	kinds := t.kinds()
	for c.cur < nSeg {
		kind, id := c.next()
		s := &c.seg[c.cur]
		timed := c.opNo&(c.every-1) == 0
		var opStart int64
		if timed && c.log != nil {
			opStart = c.w.since()
		}
		c.kb = appendKey(c.kb[:0], id)
		key := string(c.kb)
		var t0 int64
		if timed {
			t0 = c.w.since()
		}
		var err error
		switch kind {
		case workload.OpGet:
			var hit bool
			c.dst, hit, err = t.get(key, c.dst[:0])
			c.gets++
			if err != nil {
				break
			}
			if hit {
				if timed {
					c.end(s, t0, kinds[0])
				}
				c.hits++
				if !valueOK(c.dst, id) {
					err = fmt.Errorf("wrong bytes for %s", key)
				}
				break
			}
			if timed {
				c.end(s, t0, kinds[1])
				t0 = c.now
			}
			c.vb = appendValue(c.vb[:0], id)
			err = t.put(key, c.vb)
			s.reqs, s.rows = s.reqs+1, s.rows+1
			if timed && err == nil {
				c.end(s, t0, kinds[2])
			}
		case workload.OpPut:
			c.vb = appendValue(c.vb[:0], id)
			if err = t.put(key, c.vb); timed && err == nil {
				c.end(s, t0, kinds[2])
			}
		case workload.OpDelete:
			if err = t.del(key); timed && err == nil {
				c.end(s, t0, kinds[3])
			}
		}
		s.ops, s.reqs, s.rows = s.ops+1, s.reqs+1, s.rows+1
		c.count(1)
		if err != nil {
			s.failed++
			c.now = c.w.since()
		}
		if timed {
			if c.log != nil {
				c.now = c.w.since()
				c.span(opStart, spClientOp, spNone)
			}
			c.advance()
		}
		c.opNo++
	}
}

// row is one op of a batch: a trace op, or a cache-aside fill PUT carried
// for a miss of the previous batch.
type row struct {
	kind workload.OpKind
	id   uint64
}

// rowResult is a row's outcome in kvcache's vocabulary. bad marks an
// answer outside it (too_large, shed, error).
type rowResult struct {
	status kvcache.BatchStatus
	val    []byte
	bad    bool
}

// batcher is where a batch client sends its batches.
type batcher interface {
	exec(rows []row, out []rowResult) error
	kind() spanKind
}

// runBatch replays the trace in groups of batchSize ops. The misses of
// one group become fill PUTs at the head of the next, so a request never
// waits on a second exchange.
func (c *client) runBatch(b batcher) {
	rows := make([]row, 0, 2*batchSize)
	out := make([]rowResult, 2*batchSize)
	var fills []row
	for c.cur < nSeg {
		s := &c.seg[c.cur]
		opStart := c.w.since()
		rows = append(rows[:0], fills...)
		fills = fills[:0]
		for i := 0; i < batchSize; i++ {
			kind, id := c.next()
			rows = append(rows, row{kind: kind, id: id})
		}
		t0 := c.w.since()
		err := b.exec(rows, out[:len(rows)])
		s.ops, s.reqs, s.rows = s.ops+batchSize, s.reqs+1, s.rows+uint64(len(rows))
		if err != nil {
			s.failed += batchSize
			c.now = c.w.since()
			c.advance()
			continue
		}
		c.end(s, t0, b.kind())
		for i, r := range rows {
			res := out[i]
			ok := !res.bad
			switch r.kind {
			case workload.OpGet:
				c.gets++
				switch res.status {
				case kvcache.BatchHit:
					c.hits++
					ok = ok && valueOK(res.val, r.id)
				case kvcache.BatchMiss:
					fills = append(fills, row{kind: workload.OpPut, id: r.id})
				default:
					ok = false
				}
			case workload.OpPut:
				ok = ok && (res.status == kvcache.BatchStored || res.status == kvcache.BatchDenied)
			case workload.OpDelete:
				ok = ok && (res.status == kvcache.BatchDeleted || res.status == kvcache.BatchNotFound)
			}
			if !ok {
				s.failed++
			}
		}
		c.count(batchSize)
		if c.log != nil {
			c.now = c.w.since()
			c.span(opStart, spClientBatch, spNone)
		}
		c.advance()
		c.opNo++
	}
}

// directKV calls the cache's public per-op functions.
type directKV struct{ cache *kvcache.Cache }

func (d directKV) get(key string, dst []byte) ([]byte, bool, error) {
	v, hit := d.cache.GetAppend(key, dst)
	return v, hit, nil
}
func (d directKV) put(key string, val []byte) error { d.cache.Put(key, val); return nil }
func (d directKV) del(key string) error             { d.cache.Delete(key); return nil }
func (d directKV) kinds() [4]spanKind {
	return [4]spanKind{spCacheGetHit, spCacheGetMiss, spCachePut, spCacheDelete}
}

// directBatch calls the cache's public ExecBatch.
type directBatch struct {
	cache *kvcache.Cache
	ops   []kvcache.BatchOp
	res   []kvcache.BatchResult
	keys  []byte
	vals  []byte
	dst   []byte
}

func (d *directBatch) kind() spanKind { return spCacheExecBatch }

func (d *directBatch) exec(rows []row, out []rowResult) error {
	d.ops, d.vals = d.ops[:0], d.vals[:0]
	for _, r := range rows {
		d.keys = appendKey(d.keys[:0], r.id)
		op := kvcache.BatchOp{Kind: batchKind[r.kind], Key: string(d.keys)}
		if r.kind == workload.OpPut {
			// Values of one batch share an arena; a grown arena leaves the
			// earlier slices pointing into the old one, which is still theirs.
			n := len(d.vals)
			d.vals = appendValue(d.vals, r.id)
			op.Value = d.vals[n:]
		}
		d.ops = append(d.ops, op)
	}
	if cap(d.res) < len(rows) {
		d.res = make([]kvcache.BatchResult, len(rows))
	}
	res := d.res[:len(rows)]
	d.dst = d.cache.ExecBatch(d.ops, res, d.dst[:0])
	for i, r := range res {
		out[i] = rowResult{status: r.Status, val: r.Value}
	}
	return nil
}

var batchKind = [...]kvcache.BatchOpKind{workload.OpGet: kvcache.BatchGet,
	workload.OpPut: kvcache.BatchPut, workload.OpDelete: kvcache.BatchDelete}

// newHTTPClient is a client's one keep-alive connection.
func newHTTPClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}}
}

// roundTrip sends one request and returns the status and the body,
// appended to dst. The body is always read to its end so the connection
// is reused.
func roundTrip(hc *http.Client, method, url string, body, dst []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, dst, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return 0, dst, err
	}
	defer resp.Body.Close()
	for {
		if len(dst) == cap(dst) {
			dst = append(dst, 0)[:len(dst)]
		}
		n, err := resp.Body.Read(dst[len(dst):cap(dst)])
		dst = dst[:len(dst)+n]
		if err == io.EOF {
			return resp.StatusCode, dst, nil
		}
		if err != nil {
			return resp.StatusCode, dst, err
		}
	}
}

// httpKV sends each op as one /kv/ request.
type httpKV struct {
	hc   *http.Client
	base string // node url + "/kv/"
	c    *client
}

func (h httpKV) kinds() [4]spanKind {
	return [4]spanKind{spServerGetHit, spServerGetMiss, spServerPut, spServerDelete}
}

func (h httpKV) get(key string, dst []byte) ([]byte, bool, error) {
	code, dst, err := roundTrip(h.hc, http.MethodGet, h.base+key, nil, dst)
	h.c.wireBytes += uint64(len(dst))
	switch {
	case err != nil:
		return dst, false, err
	case code == http.StatusOK:
		return dst, true, nil
	case code == http.StatusNotFound:
		return dst[:0], false, nil
	}
	return dst, false, h.c.badStatus(code)
}

func (h httpKV) put(key string, val []byte) error {
	code, _, err := roundTrip(h.hc, http.MethodPut, h.base+key, val, h.c.dst[:0])
	h.c.wireBytes += uint64(len(val))
	if err != nil || code == http.StatusNoContent {
		return err
	}
	return h.c.badStatus(code)
}

func (h httpKV) del(key string) error {
	code, _, err := roundTrip(h.hc, http.MethodDelete, h.base+key, nil, h.c.dst[:0])
	if err != nil || code == http.StatusNoContent || code == http.StatusNotFound {
		return err
	}
	return h.c.badStatus(code)
}

// wireOp and wireRow mirror kvserver's /batch request and response rows.
type wireOp struct {
	Op    string `json:"op"`
	Key   string `json:"key"`
	Value []byte `json:"value,omitempty"`
}

type wireRow struct {
	Status string `json:"status"`
	Value  []byte `json:"value,omitempty"`
	Node   string `json:"node,omitempty"`
	Error  string `json:"error,omitempty"`
}

var wireVerb = [...]string{workload.OpGet: "get", workload.OpPut: "put", workload.OpDelete: "delete"}

// wireStatus maps the /batch status words back to kvcache's outcomes.
var wireStatus = func() map[string]kvcache.BatchStatus {
	m := make(map[string]kvcache.BatchStatus)
	for s := kvcache.BatchHit; s <= kvcache.BatchNotFound; s++ {
		m[s.String()] = s
	}
	return m
}()

// httpBatch sends each batch as one POST /batch.
type httpBatch struct {
	hc   *http.Client
	url  string // node url + "/batch"
	c    *client
	ops  []wireOp
	rows []wireRow
	keys []byte
	vals []byte
	body []byte
}

func (h *httpBatch) kind() spanKind { return spServerBatch }

func (h *httpBatch) exec(rows []row, out []rowResult) error {
	h.ops, h.vals = h.ops[:0], h.vals[:0]
	for _, r := range rows {
		h.keys = appendKey(h.keys[:0], r.id)
		op := wireOp{Op: wireVerb[r.kind], Key: string(h.keys)}
		if r.kind == workload.OpPut {
			n := len(h.vals)
			h.vals = appendValue(h.vals, r.id)
			op.Value = h.vals[n:]
		}
		h.ops = append(h.ops, op)
	}
	req, err := json.Marshal(h.ops)
	if err != nil {
		return err
	}
	var code int
	code, h.body, err = roundTrip(h.hc, http.MethodPost, h.url, req, h.body[:0])
	h.c.wireBytes += uint64(len(req) + len(h.body))
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return h.c.badStatus(code)
	}
	h.rows = h.rows[:0]
	if err := json.Unmarshal(h.body, &h.rows); err != nil {
		return fmt.Errorf("batch answer: %w", err)
	}
	if len(h.rows) != len(rows) {
		return fmt.Errorf("batch answer has %d rows for %d ops", len(h.rows), len(rows))
	}
	for i, r := range h.rows {
		st, known := wireStatus[r.Status]
		out[i] = rowResult{status: st, val: r.Value, bad: !known}
		if r.Status == "shed" {
			h.c.shed++
		}
		if r.Node != h.c.node {
			h.c.remoteRows++
		}
	}
	return nil
}

// servingDef is one step of the staircase: which mix, how deep, per op or
// batched.
type servingDef struct {
	depth    depth
	batch    bool
	mix      func(sizes) workload.ServiceConfig
	maxBytes func(sizes) int64
	// hitOps is how many ops of each client's window the reported hit rate
	// covers: about half of what the seed commit completes in 10 s. A window
	// that ends sooner reports the hit rate of all of it.
	hitOps uint64
}

func noBudget(sizes) int64 { return 0 }

var servingDefs = map[string]servingDef{
	"cache_read":       {direct, false, sizes.readMix, noBudget, 4 << 20},
	"cache_write":      {direct, true, sizes.writeMix, func(sz sizes) int64 { return sz.writeMaxBytes }, 6 << 20},
	"http_perop":       {oneNode, false, sizes.readMix, noBudget, 80_000},
	"http_batch32":     {oneNode, true, sizes.readMix, noBudget, 500_000},
	"cluster3_batch32": {threeNode, true, sizes.readMix, noBudget, 200_000},
}

// runWindow drives e with n clients for d and returns the window and its
// clients. Each client resumes its trace where the previous window left
// it. A direct per-op client times one op in 16, because a clock read
// costs a tenth of the call; every HTTP exchange and every ExecBatch is
// timed. A traced window records a span for each timed call. side, when
// set, runs beside the clients for the length of the window.
func (e *env) runWindow(def servingDef, d time.Duration, n int, traced bool, side func(*window)) (*window, []*client) {
	clients := make([]*client, n)
	for i := range clients {
		c := &client{id: i, trace: e.traces[i], pos: e.pos[i], every: 1, hitOps: def.hitOps,
			kb: make([]byte, 0, 32), vb: make([]byte, 0, 64<<10), dst: make([]byte, 0, 4<<10)}
		if def.depth == direct && !def.batch {
			c.every = 16
		}
		if traced {
			c.log = newSpanLog(e.sz.spanCap)
			c.root = spClientOp
			if def.batch {
				c.root = spClientBatch
			}
		}
		for k := range c.seg {
			c.seg[k].lat = make([]uint32, 0, e.sz.latCap)
		}
		clients[i] = c
	}
	runtime.GC() // start every window from a collected heap, not mid-cycle
	w := newWindow(d)
	var wg sync.WaitGroup
	for i, c := range clients {
		c.w = w
		nd := e.nodes[i%len(e.nodes)]
		c.node = nd.url
		wg.Add(1)
		go func() {
			defer wg.Done()
			switch {
			case def.depth == direct && def.batch:
				c.runBatch(&directBatch{cache: nd.cache})
			case def.depth == direct:
				c.runPerOp(directKV{nd.cache})
			case def.batch:
				c.runBatch(&httpBatch{hc: e.hc[i], url: nd.url + "/batch", c: c})
			default:
				c.runPerOp(httpKV{hc: e.hc[i], base: nd.url + "/kv/", c: c})
			}
		}()
	}
	if side != nil {
		wg.Add(1)
		go func() { defer wg.Done(); side(w) }()
	}
	w.watchCPU()
	wg.Wait()
	for i, c := range clients {
		e.pos[i] = c.pos
	}
	return w, clients
}
