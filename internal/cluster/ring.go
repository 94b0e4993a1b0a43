// Package cluster turns a set of pdpcached nodes into one PDP cache
// tier: a deterministic consistent-hash ring (virtual nodes, seeded
// placement) maps every key to exactly one owner node, a
// connection-pooled peer client forwards non-owned ops — always as a POST
// /batch sub-batch, of one op for a per-op request — a singleflight table
// coalesces concurrent per-op GETs of one key into a single peer fetch,
// and one liveness detector per peer, fed by health probes and forwarded
// exchanges alike, ejects dead members from the ring (and rejoins
// recovered ones) so keys rebalance onto survivors automatically. Ring
// membership is the only "peer down".
//
// The ring's placement depends only on (member set, vnodes) —
// never on join order or local state — so every node that shares the
// static member list computes the identical ring and the tier needs no
// coordination service. Liveness is the one piece of local knowledge:
// each node watches its peers and skips dead owners when routing, which
// converges cluster-wide within a probe period or two.
package cluster

import (
	"fmt"
	"sort"
	"sync"
)

// point is one virtual node on the ring.
type point struct {
	hash uint64
	node int // index into Ring.members
}

// Ring is a consistent-hash ring over a static member set with per-node
// virtual points and a liveness overlay. Placement (the point positions)
// is immutable after construction; Eject and Rejoin only flip liveness,
// so a recovered member gets exactly its original keys back.
type Ring struct {
	members []string // sorted, deduped
	points  []point  // sorted by hash

	mu    sync.RWMutex
	alive []bool
	nup   int
}

// fnv1a is the 64-bit FNV-1a hash over s, seeded by continuing from h
// (pass fnvOffset to start fresh).
const fnvOffset uint64 = 14695981039346656037
const fnvPrime uint64 = 1099511628211

func fnv1a(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	return h
}

// mix64 is the splitmix64 finalizer: FNV's avalanche on short inputs is
// weak, and ring balance depends on point hashes looking uniform.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// keyHash positions a key on the ring.
func keyHash(key string) uint64 {
	return mix64(fnv1a(fnvOffset, key))
}

// The placement constants every member shares: /cluster/ring reports
// both.
const (
	ringSeed   = 1
	ringVNodes = 64
)

// pointHash positions virtual node r of member m on the ring.
func pointHash(member string, r int) uint64 {
	h := fnv1a(fnvOffset, member)
	h = h ^ mix64(ringSeed+uint64(r)*0x9E3779B97F4A7C15)
	return mix64(h)
}

// NewRing builds the ring for the given member set. Members are deduped
// and sorted first, so the placement is identical on every node no
// matter the order its flag listed them in. All members start alive.
func NewRing(vnodes int, members []string) (*Ring, error) {
	if vnodes <= 0 {
		vnodes = ringVNodes
	}
	seen := map[string]bool{}
	var ms []string
	for _, m := range members {
		if m == "" {
			return nil, fmt.Errorf("cluster: empty member name")
		}
		if !seen[m] {
			seen[m] = true
			ms = append(ms, m)
		}
	}
	if len(ms) == 0 {
		return nil, fmt.Errorf("cluster: ring needs at least one member")
	}
	sort.Strings(ms)
	r := &Ring{
		members: ms,
		alive:   make([]bool, len(ms)),
		nup:     len(ms),
	}
	for i := range r.alive {
		r.alive[i] = true
	}
	r.points = make([]point, 0, len(ms)*vnodes)
	for i, m := range ms {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, point{hash: pointHash(m, v), node: i})
		}
	}
	// Ties broken by member index (itself deterministic: members are
	// sorted) so a hash collision between two nodes' points cannot make
	// two replicas of the ring disagree.
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].hash != r.points[b].hash {
			return r.points[a].hash < r.points[b].hash
		}
		return r.points[a].node < r.points[b].node
	})
	return r, nil
}

// Members returns the full (sorted) member set, dead or alive.
func (r *Ring) Members() []string {
	out := make([]string, len(r.members))
	copy(out, r.members)
	return out
}

// index returns the member's slot, -1 if unknown.
func (r *Ring) index(member string) int {
	i := sort.SearchStrings(r.members, member)
	if i < len(r.members) && r.members[i] == member {
		return i
	}
	return -1
}

// Owner returns the alive member owning key: the first alive node at or
// clockwise after the key's position. ok is false when every member is
// dead (callers should then serve locally rather than fail).
func (r *Ring) Owner(key string) (string, bool) {
	return r.ownerAt(keyHash(key))
}

func (r *Ring) ownerAt(h uint64) (string, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if r.nup == 0 {
		return "", false
	}
	n := len(r.points)
	start := sort.Search(n, func(i int) bool { return r.points[i].hash >= h })
	for i := 0; i < n; i++ {
		p := r.points[(start+i)%n]
		if r.alive[p.node] {
			return r.members[p.node], true
		}
	}
	return "", false
}

// IsAlive reports the liveness overlay for member (false for unknowns).
func (r *Ring) IsAlive(member string) bool {
	i := r.index(member)
	if i < 0 {
		return false
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.alive[i]
}

// Alive returns the currently-live members, sorted.
func (r *Ring) Alive() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, r.nup)
	for i, m := range r.members {
		if r.alive[i] {
			out = append(out, m)
		}
	}
	return out
}

// AliveCount returns the number of live members.
func (r *Ring) AliveCount() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.nup
}

// Eject marks a member dead, rerouting its keys to the next alive nodes
// clockwise. It reports whether the state changed.
func (r *Ring) Eject(member string) bool { return r.setAlive(member, false) }

// Rejoin marks a member alive again; because placement never changed, it
// receives exactly the keys it owned before ejection.
func (r *Ring) Rejoin(member string) bool { return r.setAlive(member, true) }

func (r *Ring) setAlive(member string, up bool) bool {
	i := r.index(member)
	if i < 0 {
		return false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.alive[i] == up {
		return false
	}
	r.alive[i] = up
	if up {
		r.nup++
	} else {
		r.nup--
	}
	return true
}
