package kvserver

import (
	"encoding/json"
	"net/http"
	"strings"

	"pdp/internal/cluster"
)

// routeKV is the front of the /kv/ data path: it parses the key, reads
// and validates a PUT body once, then serves the request from the local
// cache or — with a cluster, for a key a live peer owns — by proxy. A
// peer failure (breaker open, transport error, timeout) falls back to
// the local cache with the same key and body: during the window between
// a peer dying and the probe loop ejecting it, requests for its keys
// still answer — possibly a miss, never an error.
func (s *Server) routeKV(w http.ResponseWriter, r *http.Request) {
	key := strings.TrimPrefix(r.URL.Path, "/kv/")
	if key == "" {
		http.Error(w, "missing key", http.StatusBadRequest)
		return
	}
	var body []byte
	if r.Method == http.MethodPut || r.Method == http.MethodPost {
		bp := kvBufs.Get().(*[]byte)
		defer putKVBuf(bp)
		var err error
		body, err = appendLimited((*bp)[:0], r.Body, s.cfg.MaxValueBytes+1)
		*bp = body[:0]
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if int64(len(body)) > s.cfg.MaxValueBytes {
			http.Error(w, "value too large", http.StatusRequestEntityTooLarge)
			return
		}
	}
	if owner := s.peerOwner(w, r, key); owner == "" || !s.proxyKV(w, r, owner, key, body) {
		s.handleKV(w, r, key, body)
	}
}

// peerOwner is routeKey for one /kv/ request, plus the routing headers.
func (s *Server) peerOwner(w http.ResponseWriter, r *http.Request, key string) string {
	cl := s.cfg.Cluster
	if cl == nil {
		return ""
	}
	w.Header().Set("X-Cluster-Node", cl.Self())
	owner := routeKey(cl, key, r.Header.Get(cluster.HopHeader) != "")
	if owner != "" {
		w.Header().Set("X-Cluster-Owner", owner)
	}
	return owner
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

// proxyKV relays one exchange to the key's owner (GETs through the
// singleflight fill table, mutations directly) and reports whether it
// answered; false hands the request to the local path.
func (s *Server) proxyKV(w http.ResponseWriter, r *http.Request, owner, key string, body []byte) bool {
	cl := s.cfg.Cluster
	var resp *cluster.PeerResponse
	var err error
	switch r.Method {
	case http.MethodGet:
		resp, err = cl.FetchGet(r.Context(), owner, key)
	case http.MethodPut, http.MethodPost:
		resp, err = cl.Forward(r.Context(), owner, http.MethodPut, key, body)
	case http.MethodDelete:
		resp, err = cl.Forward(r.Context(), owner, http.MethodDelete, key, nil)
	default:
		return false
	}
	if err != nil {
		cl.FallbackLocal()
		return false
	}
	writePeerResponse(w, resp)
	return true
}

// writePeerResponse relays a buffered peer answer, preserving the
// owner's X-Cache attribution so clients and the load driver see where
// the hit or miss actually happened.
func writePeerResponse(w http.ResponseWriter, resp *cluster.PeerResponse) {
	if resp.XCache != "" {
		w.Header().Set("X-Cache", resp.XCache)
	}
	if resp.Status == http.StatusOK {
		w.Header().Set("Content-Type", "application/octet-stream")
	}
	w.WriteHeader(resp.Status)
	if len(resp.Body) > 0 {
		w.Write(resp.Body)
	}
}

// handleClusterRing serves the node's cluster view: membership with
// aliveness and breaker state, routing counters, and — with ?key=K —
// the owner the local ring resolves K to (what the smoke script uses to
// assert survivor agreement after a kill).
func (s *Server) handleClusterRing(w http.ResponseWriter, r *http.Request) {
	v := s.cfg.Cluster.StatsView(r.URL.Query().Get("key"))
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		s.serveError("/cluster/ring", requestID(r), err)
	}
}
