package kvserver

import (
	"encoding/json"
	"net/http"
	"strings"

	"pdp/internal/batchwire"
	"pdp/internal/cluster"
	"pdp/internal/kvcache"
)

// routeKV is the whole /kv/ data path, and a per-op request is a batch of
// one: the op is decoded from method, path and body into the pooled batch
// scratch, runs where /batch would run it — execBatchLocal, or for a key a
// live peer owns the peer hop, under peerAnswer's one failure rule — and its
// single row is written back in this route's HTTP vocabulary (DESIGN.md §8).
// A peer failure therefore falls back to the local cache: during the window
// between a peer dying and the ring ejecting it, requests for its keys
// still answer — possibly a miss, never an error.
func (s *Server) routeKV(w http.ResponseWriter, r *http.Request) {
	op := kvcache.BatchOp{Key: strings.TrimPrefix(r.URL.Path, "/kv/")}
	if op.Key == "" {
		http.Error(w, "missing key", http.StatusBadRequest)
		return
	}
	switch r.Method {
	case http.MethodGet:
		op.Kind = kvcache.BatchGet
	case http.MethodPut, http.MethodPost:
		op.Kind = kvcache.BatchPut
	case http.MethodDelete:
		op.Kind = kvcache.BatchDelete
	default:
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	sc := batchScratches.Get().(*batchScratch)
	defer sc.release()
	if op.Kind == kvcache.BatchPut {
		var err error
		if sc.body, err = appendLimited(sc.body[:0], r.Body, s.cfg.MaxValueBytes+1); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if int64(len(sc.body)) > s.cfg.MaxValueBytes {
			http.Error(w, "value too large", http.StatusRequestEntityTooLarge)
			return
		}
		op.Value = sc.body
	}
	node, hopped := s.clusterNode(w, r)
	g := sc.group(routeKey(s.cfg.Cluster, op.Key, hopped))
	g.ops, g.at = append(g.ops, op), append(g.at, 0)
	sc.rows = append(sc.rows[:0], batchwire.Row{})
	if g.owner != "" {
		w.Header().Set("X-Cluster-Owner", g.owner)
	}
	switch {
	case g.owner == "":
		s.execBatchLocal(g, sc.rows, node)
	case op.Kind == kvcache.BatchGet:
		// Reads ride the singleflight fill table: concurrent GETs of one
		// key cost its owner one exchange.
		resp, err := s.cfg.Cluster.FetchGet(r.Context(), g.owner, op.Key)
		s.peerAnswer(g, sc.rows, resp, err)
	default:
		s.execBatchRemote(r, g, sc.rows)
	}
	s.writeKVRow(w, r, &sc.rows[0])
}

// writeKVRow answers a /kv/ request with its op's row; hit values alias the
// scratch, which net/http has copied from by the time Write returns.
func (s *Server) writeKVRow(w http.ResponseWriter, r *http.Request, row *batchwire.Row) {
	switch row.Status {
	case "hit":
		w.Header().Set("X-Cache", "hit")
		w.Header().Set("Content-Type", "application/octet-stream")
		if _, err := w.Write(row.Value); err != nil {
			s.serveError("/kv/", requestID(r), err)
		}
	case "miss":
		w.Header().Set("X-Cache", "miss")
		http.Error(w, "not found", http.StatusNotFound)
	case "denied":
		// Admission denied: the policy judged the key not worth caching
		// right now. 204 tells the client the write was handled but not
		// stored — cache-aside clients treat it like a successful set.
		w.Header().Set("X-Cache", "deny")
		w.WriteHeader(http.StatusNoContent)
	case "stored", "deleted":
		w.WriteHeader(http.StatusNoContent)
	case "not_found":
		http.Error(w, "not found", http.StatusNotFound)
	case batchwire.StatusShed:
		s.writeShed(w)
	case batchwire.StatusTooLarge: // the owner's limit is below this node's
		http.Error(w, "value too large", http.StatusRequestEntityTooLarge)
	default:
		http.Error(w, "owner answered "+row.Status+": "+row.Error, http.StatusBadGateway)
	}
}

// clusterNode is the routing preamble /kv/ and /batch share: it stamps the
// answer with this node's id and reports whether the request already hopped
// once. Both are zero without a cluster.
func (s *Server) clusterNode(w http.ResponseWriter, r *http.Request) (node string, hopped bool) {
	cl := s.cfg.Cluster
	if cl == nil {
		return "", false
	}
	w.Header().Set("X-Cluster-Node", cl.Self())
	return cl.Self(), r.Header.Get(cluster.HopHeader) != ""
}

// routeKey resolves key on the ring and returns the live peer that owns
// it, or "" when the op is to be served locally: no cluster, an owned key,
// an empty ring, or a request already forwarded once (hopped: it carried
// the cluster.HopHeader) — that one is served locally no matter what the
// local ring says, so two nodes with momentarily divergent views bounce a
// request at most once instead of cycling it. /kv/ and /batch share it.
func routeKey(cl *cluster.Cluster, key string, hopped bool) string {
	if cl == nil {
		return ""
	}
	owner, local, ok := cl.Owner(key)
	if hopped {
		if !local {
			// The sender thought we own this key; we disagree. Terminate
			// here anyway — the disagreement is a transient view split and
			// local service keeps the request loop-free.
			cl.HopTerminated()
		}
		return ""
	}
	if !ok || local {
		return ""
	}
	return owner
}

// handleClusterRing serves the node's cluster view: membership with
// aliveness, routing counters, and — with ?key=K —
// the owner the local ring resolves K to (what the smoke script uses to
// assert survivor agreement after a kill).
func (s *Server) handleClusterRing(w http.ResponseWriter, r *http.Request) {
	v := s.cfg.Cluster.StatsView(r.URL.Query().Get("key"))
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		s.serveError("/cluster/ring", requestID(r), err)
	}
}
