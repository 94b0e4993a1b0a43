package telemetry

// Serving-robustness record kinds. The admission gate, the degraded-mode
// breaker, the shard-lock watchdog and the snapshot loop
// (internal/servefault, internal/kvcache, internal/kvserver) journal
// through these, so an overloaded or degraded serving run is auditable
// the same way a fault campaign is.
const (
	// KindShed records one request refused by overload protection (503 +
	// Retry-After) or cut down by its deadline while queued.
	KindShed = "shed"
	// KindBreaker records a degraded-mode breaker transition: a shard (or
	// every shard) tripping into shadow-LRU fallback, or re-arming after a
	// streak of clean recomputes.
	KindBreaker = "breaker"
	// KindLockHold records a shard lock held past the configured watchdog
	// threshold — the serving-path symptom of a stalled or injected-slow
	// critical section.
	KindLockHold = "lock_hold"
	// KindCacheSnapshot records one crash-safe cache snapshot save (or a
	// failed attempt).
	KindCacheSnapshot = "cache_snapshot"
)

// ShedRecord is the KindShed schema.
type ShedRecord struct {
	Kind string `json:"kind"`
	// Route is the instrumented route that shed ("/kv/").
	Route string `json:"route,omitempty"`
	// Reason is "overload" (gate full, no deadline to wait under) or
	// "deadline" (the request's deadline expired while queued).
	Reason string `json:"reason"`
	// RequestID is the X-Request-Id of the shed request.
	RequestID string `json:"request_id,omitempty"`
}

// RecordKind implements Record.
func (ShedRecord) RecordKind() string { return KindShed }

// BreakerRecord is the KindBreaker schema.
type BreakerRecord struct {
	Kind string `json:"kind"`
	// Shard is the affected shard, -1 for a whole-cache transition.
	Shard int `json:"shard"`
	// State is "tripped" or "rearmed".
	State string `json:"state"`
	// Reason names the trigger: "recompute_panic", "recompute_stall",
	// "rdd_inconsistent", "sampler_corrupt",
	// or, for re-arms, "clean_recomputes".
	Reason string `json:"reason"`
	// Streak is the clean-recompute streak at the transition (re-arms).
	Streak int `json:"streak,omitempty"`
}

// RecordKind implements Record.
func (BreakerRecord) RecordKind() string { return KindBreaker }

// LockHoldRecord is the KindLockHold schema.
type LockHoldRecord struct {
	Kind string `json:"kind"`
	// Shard is the shard whose lock was held too long.
	Shard int `json:"shard"`
	// HeldMS is the observed hold time in milliseconds.
	HeldMS float64 `json:"held_ms"`
	// WarnMS is the configured watchdog threshold in milliseconds.
	WarnMS float64 `json:"warn_ms"`
}

// RecordKind implements Record.
func (LockHoldRecord) RecordKind() string { return KindLockHold }

// CacheSnapshotRecord is the KindCacheSnapshot schema.
type CacheSnapshotRecord struct {
	Kind string `json:"kind"`
	// Path is the snapshot file written (or attempted).
	Path string `json:"path"`
	// Entries and Bytes describe the captured occupancy.
	Entries int   `json:"entries"`
	Bytes   int64 `json:"bytes"`
	// PD is the protecting distance captured with the state.
	PD int `json:"pd,omitempty"`
	// Err is the failure text when the save did not land.
	Err string `json:"err,omitempty"`
}

// RecordKind implements Record.
func (CacheSnapshotRecord) RecordKind() string { return KindCacheSnapshot }

// Clustered-serving record kinds (internal/cluster).
const (
	// KindMembership records a ring membership transition: a peer ejected
	// after consecutive failed health probes, or rejoined after recovering.
	KindMembership = "membership"
)

// MembershipRecord is the KindMembership schema.
type MembershipRecord struct {
	Kind string `json:"kind"`
	// Event is "eject" or "rejoin".
	Event string `json:"event"`
	// Peer is the affected member's node id.
	Peer string `json:"peer"`
	// Alive and Members give the ring's live/total membership after the
	// transition.
	Alive   int `json:"alive"`
	Members int `json:"members"`
	// Streak is the consecutive probe failures (ejects) or successes
	// (rejoins) that drove the transition.
	Streak int `json:"streak,omitempty"`
}

// RecordKind implements Record.
func (MembershipRecord) RecordKind() string { return KindMembership }
