package kvcache

import "slices"

// Decision kinds — the attribution classes of the serving policy.
const (
	// DecisionEvictUnprotected: a fill evicted a line whose protection had
	// expired (RPD == 0) — the policy's intended victim class.
	DecisionEvictUnprotected = "evict_unprotected"
	// DecisionEvictForced: a fill evicted a still-protected line because
	// the whole set was protected and AdmitAll demanded an inclusive
	// victim (the PDP-NB analogue). In LRU mode every eviction is
	// unprotected; forced evictions never occur.
	DecisionEvictForced = "evict_forced"
	// DecisionDeny: admission control refused a fill (fully protected set
	// or uncoverable byte budget).
	DecisionDeny = "deny"
	// DecisionSave: a hit landed on a protected line a same-geometry LRU
	// baseline would already have evicted — the shadow-LRU approximation
	// of "protection saved this hit". A line is marked doomed when the
	// policy diverges from LRU (it evicts or denies while a *different*,
	// less recently used line exists, which LRU would have chosen); the
	// next hit on a doomed line counts as one save and clears the mark.
	DecisionSave = "save"
)

// Decision is one attributed policy event: which shard/set/way it hit,
// what kind of decision it was, the key concerned, the victim's remaining
// protecting distance (eviction kinds) and the PD in force at the time.
type Decision struct {
	// Seq is the shard's own decision ordinal (1-based): (Shard, Seq)
	// names a decision, and Seq orders decisions within a shard only.
	Seq   uint64 `json:"seq"`
	Shard int    `json:"shard"`
	Set   int    `json:"set"`
	// Way is the affected way, -1 for denies (no line was touched).
	Way  int    `json:"way"`
	Kind string `json:"kind"`
	Key  string `json:"key,omitempty"`
	// RPD is the victim's remaining protecting distance at eviction
	// (> 0 exactly for forced evictions).
	RPD int `json:"rpd,omitempty"`
	// PD is the protecting distance in force when the decision was made.
	PD int `json:"pd"`
}

// DefaultDecisionLog bounds the in-memory decision history when the
// configuration does not say otherwise.
const DefaultDecisionLog = 512

// DecisionLog is the read side of the shards' decision rings, exported by
// the server at /debug/decisions. Each shard records its own decisions in
// a ring it owns (Config.DecisionLog entries are split across the shards),
// written under the shard lock the deciding operation already holds, so a
// decision costs no lock and no write outside its shard; the log holds
// nothing but the shards. All methods are safe on a nil receiver (the
// disabled mode) and under concurrent use.
type DecisionLog struct{ shards []*shard }

// Total returns the number of decisions ever made, read off the shard
// ledgers: every eviction, deny and save is exactly one decision.
func (l *DecisionLog) Total() uint64 {
	if l == nil {
		return 0
	}
	var n uint64
	for _, sh := range l.shards {
		sh.mu.Lock()
		n += sh.st.decisions()
		sh.mu.Unlock()
	}
	return n
}

// Tail returns at most n recent decisions. Shards share no clock, so the
// choice is made per shard: each shard's newest retained decision in shard
// order, then each one's next newest, and so on until n are taken or every
// ring is exhausted. The result is grouped by shard in shard order, oldest
// first within each shard; with one shard it is the last n decisions,
// oldest first.
func (l *DecisionLog) Tail(n int) []Decision {
	if l == nil || n <= 0 {
		return nil
	}
	held := make([][]Decision, len(l.shards))
	for i, sh := range l.shards {
		held[i] = sh.retained()
	}
	take := make([]int, len(held))
	left := n
	for more := true; more && left > 0; {
		more = false
		for i := range held {
			if left > 0 && take[i] < len(held[i]) {
				take[i]++
				left--
				more = true
			}
		}
	}
	out := make([]Decision, 0, n-left)
	for i, h := range held {
		out = append(out, h[len(h)-take[i]:]...)
	}
	return out
}

// decisions is the number of decisions the ledger has counted.
func (s *ShardStats) decisions() uint64 {
	return s.EvictionsUnprotected + s.EvictionsForced + s.Denies + s.Saves
}

// decided records one attributed policy decision in the shard's ring,
// under mu. The caller has just counted it in the ledger, so the ledger's
// decision count is its Seq and the ring needs no cursor of its own.
func (sh *shard) decided(kind string, set, w int, key string, rpd, pd int) {
	if len(sh.dec) == 0 {
		return
	}
	seq := sh.st.decisions()
	sh.dec[(seq-1)%uint64(len(sh.dec))] = Decision{
		Seq: seq, Shard: sh.id, Set: set, Way: w, Kind: kind, Key: key, RPD: rpd, PD: pd,
	}
}

// retained copies the shard's ring out under its lock, oldest first.
func (sh *shard) retained() []Decision {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	seq, n := sh.st.decisions(), uint64(len(sh.dec))
	if n == 0 {
		return nil
	}
	if seq <= n {
		return slices.Clone(sh.dec[:seq])
	}
	i := seq % n // the oldest entry, next to be overwritten
	return append(slices.Clone(sh.dec[i:]), sh.dec[:i]...)
}
