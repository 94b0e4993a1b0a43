package kvcache

import "sync"

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
	// Seq is the log-lifetime ordinal (1-based, monotone across shards).
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

// DecisionLog is a bounded ring of the most recent policy decisions,
// exported by the server at /debug/decisions. All methods are safe on a
// nil receiver (the disabled mode) and under concurrent use; appends are
// O(1) under one short mutex, so the per-decision cost on the serving
// path is a few tens of nanoseconds.
type DecisionLog struct {
	mu     sync.Mutex
	ring   []Decision
	next   int
	filled bool
	seq    uint64
}

// NewDecisionLog builds a log retaining the last n decisions
// (DefaultDecisionLog when n <= 0).
func NewDecisionLog(n int) *DecisionLog {
	if n <= 0 {
		n = DefaultDecisionLog
	}
	return &DecisionLog{ring: make([]Decision, n)}
}

// add records d, stamping its sequence number.
func (l *DecisionLog) add(d Decision) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.seq++
	d.Seq = l.seq
	l.ring[l.next] = d
	l.next++
	if l.next == len(l.ring) {
		l.next = 0
		l.filled = true
	}
	l.mu.Unlock()
}

// Len returns the number of decisions currently held.
func (l *DecisionLog) Len() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.filled {
		return len(l.ring)
	}
	return l.next
}

// Total returns the number of decisions ever recorded.
func (l *DecisionLog) Total() uint64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seq
}

// Tail returns the most recent n decisions, oldest first.
func (l *DecisionLog) Tail(n int) []Decision {
	if l == nil || n <= 0 {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	held := l.next
	if l.filled {
		held = len(l.ring)
	}
	if n > held {
		n = held
	}
	out := make([]Decision, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, l.ring[(l.next-n+i+len(l.ring))%len(l.ring)])
	}
	return out
}
