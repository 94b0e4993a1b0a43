package kvcache

import (
	"fmt"
	"math/bits"

	"pdp/internal/cache"
)

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
	vals [][]byte
	// meta is one byte per way in the simulator's layout (cache.NewMeta):
	// 0 for an empty way, else the fingerprint of its in-shard key hash.
	meta  []uint64
	words int // meta words per set

	// Occupancy is written by fills and evictions, everything above is read
	// by every operation: keep the two on different cache lines.
	_       [64]byte
	entries int
	bytes   int64
}

func newLines(sets, ways int) lines {
	meta, words := cache.NewMeta(sets, ways)
	return lines{sets: sets, ways: ways, keys: make([]string, sets*ways), vals: make([][]byte, sets*ways), meta: meta, words: words}
}

// setOf maps the in-shard hash to a set; the set count need not be a power
// of two.
func (l *lines) setOf(h uint64) int { return int(h % uint64(l.sets)) }

// find probes the set for key eight ways per word (cache.Probe), returning
// its way or -1. Keys are compared only where the fingerprint matches:
// almost only on the hit itself, and on about 1 in 127 other resident ways.
func (l *lines) find(set int, h uint64, key string) int {
	fp, keys := cache.Fingerprint(h), l.keys[set*l.ways:]
	for i, word := range l.meta[set*l.words : (set+1)*l.words] {
		for cand, _ := cache.Probe(word, fp); cand != 0; cand &= cand - 1 {
			if w := i*8 + bits.TrailingZeros64(cand)>>3; keys[w] == key {
				return w
			}
		}
	}
	return -1
}

// value returns the resident line's bytes; they alias the store.
func (l *lines) value(set, w int) []byte { return l.vals[set*l.ways+w] }

// freeWay returns the set's lowest empty way, or -1 when the set is full.
// It must stay the lowest (TestFillTakesLowestEmptyWay).
func (l *lines) freeWay(set int) int {
	for i, word := range l.meta[set*l.words : (set+1)*l.words] {
		if _, empty := cache.Probe(word, 0); empty != 0 {
			return i*8 + bits.TrailingZeros64(empty)>>3
		}
	}
	return -1
}

// metaByte returns the metadata byte of (set, w): 0 when it is empty.
func (l *lines) metaByte(set, w int) uint64 {
	return l.meta[set*l.words+w>>3] >> (8 * (w & 7)) & 0xff
}

// install places key/val in the empty slot (set, w); val is owned by the
// store from here on.
func (l *lines) install(set, w int, h uint64, key string, val []byte) {
	l.keys[set*l.ways+w], l.vals[set*l.ways+w] = key, val
	l.meta[set*l.words+w>>3] |= cache.Fingerprint(h) << (8 * (w & 7))
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
	l.keys[i], l.vals[i] = "", nil
	l.meta[set*l.words+w>>3] &^= 0xff << (8 * (w & 7))
	l.entries--
	l.bytes -= int64(len(val))
	return key, val
}

// check verifies the store against itself: resident lines carry their own
// key's fingerprint (nshards is what route divided the hash by), empty
// slots carry nothing, and the tracked occupancy matches a recount and the
// byte budget (0 = none).
func (l *lines) check(nshards int, maxBytes int64) error {
	var entries int
	var bytes int64
	for i := range l.keys {
		set, w := i/l.ways, i%l.ways
		fp := l.metaByte(set, w)
		switch ok := fp != 0; {
		case !ok && (l.keys[i] != "" || l.vals[i] != nil):
			return fmt.Errorf("empty line (%d,%d) kept key/value", set, w)
		case ok && l.keys[i] == "":
			return fmt.Errorf("resident line (%d,%d) with empty key", set, w)
		case ok && fp != cache.Fingerprint(hash(l.keys[i])/uint64(nshards)):
			return fmt.Errorf("line (%d,%d) stored fingerprint %#x is not its key's", set, w, fp)
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
