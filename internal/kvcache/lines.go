package kvcache

import "fmt"

// lines is a shard's line store: a sets x ways array of key/value slots
// and its occupancy, and nothing else. It knows which slot holds which key
// and how many entries and bytes are resident; it does not know why a line
// is kept or dropped — that is the policy's side of the seam (policy.go),
// which in turn sees only sets, ways and the in-shard hash. Every install,
// in-place update and removal in the package goes through the three
// mutators below, so occupancy is adjusted here and nowhere else.
// Not goroutine-safe: the shard's lock guards it.
type lines struct {
	sets, ways int

	keys []string
	// hashes[i] is the line's in-shard key hash: find rejects non-matching
	// lines on one integer compare instead of a string compare.
	hashes []uint64
	vals   [][]byte
	valid  []bool

	// Occupancy is written by fills and evictions, everything above is read
	// by every operation: keep the two on different cache lines.
	_       [64]byte
	entries int
	bytes   int64
}

func newLines(sets, ways int) lines {
	n := sets * ways
	return lines{
		sets: sets, ways: ways,
		keys:   make([]string, n),
		hashes: make([]uint64, n),
		vals:   make([][]byte, n),
		valid:  make([]bool, n),
	}
}

// setOf maps the in-shard hash to a set; the set count need not be a power
// of two.
func (l *lines) setOf(h uint64) int { return int(h % uint64(l.sets)) }

// find scans the set for key, returning its way or -1. The stored in-shard
// hash rejects non-matching lines on one integer compare; the string
// compare runs only on a hash match (i.e. almost only on the hit itself).
func (l *lines) find(set int, h uint64, key string) int {
	base := set * l.ways
	for w := 0; w < l.ways; w++ {
		if l.valid[base+w] && l.hashes[base+w] == h && l.keys[base+w] == key {
			return w
		}
	}
	return -1
}

// value returns the resident line's bytes; they alias the store.
func (l *lines) value(set, w int) []byte { return l.vals[set*l.ways+w] }

// freeWay returns the set's lowest empty way, or -1 when the set is full.
func (l *lines) freeWay(set int) int {
	base := set * l.ways
	for w := 0; w < l.ways; w++ {
		if !l.valid[base+w] {
			return w
		}
	}
	return -1
}

// install places key/val in the empty slot (set, w); val is owned by the
// store from here on.
func (l *lines) install(set, w int, h uint64, key string, val []byte) {
	i := set*l.ways + w
	l.keys[i], l.hashes[i], l.vals[i], l.valid[i] = key, h, val, true
	l.entries++
	l.bytes += int64(len(val))
}

// replace swaps the resident line's value for val and returns the
// displaced buffer.
func (l *lines) replace(set, w int, val []byte) []byte {
	i := set*l.ways + w
	old := l.vals[i]
	l.vals[i] = val
	l.bytes += int64(len(val)) - int64(len(old))
	return old
}

// remove empties the resident slot (set, w), returning the key and value
// buffer it held.
func (l *lines) remove(set, w int) (string, []byte) {
	i := set*l.ways + w
	key, val := l.keys[i], l.vals[i]
	l.keys[i], l.hashes[i], l.vals[i], l.valid[i] = "", 0, nil, false
	l.entries--
	l.bytes -= int64(len(val))
	return key, val
}

// check verifies the store against itself: resident lines carry their own
// key's hash (nshards is what route divided it by), empty slots carry
// nothing, and the tracked occupancy matches a recount and the byte
// budget (0 = none).
func (l *lines) check(nshards int, maxBytes int64) error {
	var entries int
	var bytes int64
	for i, ok := range l.valid {
		set, w := i/l.ways, i%l.ways
		switch {
		case !ok && (l.keys[i] != "" || l.vals[i] != nil || l.hashes[i] != 0):
			return fmt.Errorf("invalid line (%d,%d) kept key/value/hash", set, w)
		case ok && l.keys[i] == "":
			return fmt.Errorf("valid line (%d,%d) with empty key", set, w)
		case ok && l.hashes[i] != hash(l.keys[i])/uint64(nshards):
			return fmt.Errorf("line (%d,%d) stored hash %#x is not its key's", set, w, l.hashes[i])
		case ok:
			entries++
			bytes += int64(len(l.vals[i]))
		}
	}
	switch {
	case entries != l.entries:
		return fmt.Errorf("entry count drifted: counted %d, tracked %d", entries, l.entries)
	case bytes != l.bytes:
		return fmt.Errorf("byte accounting drifted: counted %d, tracked %d", bytes, l.bytes)
	case maxBytes > 0 && bytes > maxBytes:
		return fmt.Errorf("bytes %d exceed budget %d", bytes, maxBytes)
	}
	return nil
}
