package kvcache

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"pdp/internal/cache"
)

// refLines is the line store and shadow LRU as they were before the
// fingerprint bytes and the recency stack, kept as their oracle: a valid
// flag, the in-shard hash and an int64 recency stamp per line, each read
// by a linear scan.
type refLines struct {
	ways   int
	valid  []bool
	hashes []uint64
	keys   []string
	vals   [][]byte
	stamp  int64
	last   []int64
}

func newRefLines(sets, ways int) *refLines {
	n := sets * ways
	return &refLines{ways: ways, valid: make([]bool, n), hashes: make([]uint64, n),
		keys: make([]string, n), vals: make([][]byte, n), last: make([]int64, n)}
}

func (r *refLines) find(set int, h uint64, key string) int {
	for w := 0; w < r.ways; w++ {
		if i := set*r.ways + w; r.valid[i] && r.hashes[i] == h && r.keys[i] == key {
			return w
		}
	}
	return -1
}

func (r *refLines) freeWay(set int) int {
	for w := 0; w < r.ways; w++ {
		if !r.valid[set*r.ways+w] {
			return w
		}
	}
	return -1
}

func (r *refLines) touch(set, w int) { r.stamp++; r.last[set*r.ways+w] = r.stamp }

func (r *refLines) install(set, w int, h uint64, key string, val []byte) {
	i := set*r.ways + w
	r.valid[i], r.hashes[i], r.keys[i], r.vals[i] = true, h, key, val
	r.touch(set, w)
}

func (r *refLines) remove(set, w int) {
	i := set*r.ways + w
	r.valid[i], r.hashes[i], r.keys[i], r.vals[i], r.last[i] = false, 0, "", nil, 0
}

// order returns the set's resident ways by descending stamp: most recently
// used first, so its last way is the LRU victim.
func (r *refLines) order(set int) []uint8 {
	var ws []uint8
	for w := 0; w < r.ways; w++ {
		if r.valid[set*r.ways+w] {
			ws = append(ws, uint8(w))
		}
	}
	slices.SortFunc(ws, func(a, b uint8) int {
		return int(r.last[set*r.ways+int(b)] - r.last[set*r.ways+int(a)])
	})
	return ws
}

// linesPool is the keys FuzzLines places and looks up in a 3-set store
// (in-shard hash = hash(key), one shard): per set, six keys that share one
// fingerprint, then twelve more of any set and fingerprint.
func linesPool(sets int) []string {
	var pool []string
	for set := 0; set < sets; set++ {
		var fp uint64
		for i, n := 0, 0; n < 6; i++ {
			k := fmt.Sprintf("s%d-%d", set, i)
			h := hash(k)
			if int(h%uint64(sets)) != set || fp != 0 && cache.Fingerprint(h) != fp {
				continue
			}
			fp = cache.Fingerprint(h)
			pool = append(pool, k)
			n++
		}
	}
	for i := 0; i < 12; i++ {
		pool = append(pool, fmt.Sprintf("any-%d", i))
	}
	return pool
}

// FuzzLines runs a program of line-store and policy operations over a
// 3-set store of 1+in[0]%12 ways (past 8 ways a set spans two meta words)
// against refLines, two input bytes per operation, at most 256 operations: the low three bits of
// the first pick it, the second picks a pool key. A fill installs at the
// lowest empty way (freeWay) or, for odd keys, the highest, so holes open
// below resident ways; a full set evicts the LRU victim. Every answer of
// find, freeWay, value, victim, spare and the recency order is compared
// after every operation, for an lru and for the shadow inside a pdp, whose
// spare must be the lowest unprotected resident way; check must pass
// throughout.
func FuzzLines(f *testing.F) {
	f.Add([]byte{7, 0, 0, 0, 1, 0, 2, 0, 3, 2, 1, 3, 2, 4, 1, 5, 0, 0, 4})
	f.Add([]byte{11, 0, 18, 1, 19, 0, 20, 1, 21, 0, 22, 1, 23, 0, 24, 1, 25, 0, 26, 3, 20, 4, 0, 0, 27, 2, 19})
	f.Add([]byte{0, 0, 6, 0, 7, 2, 6, 3, 7, 4, 1, 0, 8})
	f.Add([]byte{8, 0, 0, 0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 0, 18, 0, 19, 0, 20, 3, 2, 5, 2, 0, 21, 4, 0, 2, 1})
	// Five fills of set 0, aged past their protection, then hits, a delete
	// and fills with a longer distance: pdp spare's choice of way.
	f.Add([]byte{7, 0, 0, 0, 1, 0, 2, 0, 3, 0, 4, 5, 0, 5, 0, 5, 0, 5, 0, 5, 0, 5, 0, 5, 0, 5, 0, 5, 0, 5, 0, 5, 0, 5, 0, 5, 0, 5, 0, 5, 0, 5, 0, 5, 0, 5, 0, 5, 0, 5, 0, 2, 2, 2, 0, 4, 2, 5, 0, 5, 0, 5, 0, 24, 5, 0, 6, 5, 0, 5, 0, 5, 0, 5, 0, 5, 0, 5, 0, 5, 0, 5, 0, 5, 0, 5, 0})
	// Every operation checks the whole store: longer programs only slow
	// the fuzzer down.
	const sets, maxOps = 3, 256
	pool := linesPool(sets)
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) < 1 || len(in) > 1+2*maxOps {
			return
		}
		ways := 1 + int(in[0])%12
		cfg := Config{Sets: sets, Ways: ways, DMax: 64, NC: 3, SC: 4}
		ln, ref := newLines(sets, ways), newRefLines(sets, ways)
		l, p := newLRU(sets, ways), newPDP(&cfg)
		evict := func(set, w int) {
			l.drop(set, w)
			p.drop(set, w)
			ln.remove(set, w)
			ref.remove(set, w)
		}
		for op := 1; op+1 < len(in); op += 2 {
			kind, key := in[op]&7, pool[int(in[op+1])%len(pool)]
			h := hash(key)
			set, pd := int(h%sets), 8*int(in[op]>>3&7)
			switch kind {
			case 0, 1: // put: an update when resident, else a fill
				val := []byte(key)[:int(in[op+1])%len(key)]
				if w := ref.find(set, h, key); w >= 0 {
					ln.replace(set, w, val)
					ref.vals[set*ways+w] = val
					l.hit(set, w, h, pd)
					p.hit(set, w, h, pd)
					ref.touch(set, w)
					break
				}
				w := ln.freeWay(set)
				if w < 0 {
					w = l.victim(set)
					evict(set, w)
				} else if in[op+1]&1 == 1 {
					w = ways - 1
					for ref.valid[set*ways+w] {
						w--
					}
				}
				ln.install(set, w, h, key, val)
				ref.install(set, w, h, key, val)
				l.fill(set, w, pd)
				p.fill(set, w, pd)
			case 2, 3: // get
				if w := ref.find(set, h, key); w >= 0 {
					l.hit(set, w, h, pd)
					p.hit(set, w, h, pd)
					ref.touch(set, w)
				} else {
					p.observe(set, h)
				}
			case 4: // delete
				if w := ref.find(set, h, key); w >= 0 {
					evict(set, w)
				}
				p.observe(set, h)
			default: // an access to the set that misses: the clock runs
				p.observe(set, h)
			}
			for s := 0; s < sets; s++ {
				want := ref.order(s)
				if got := l.order(s); !bytes.Equal(got, want) {
					t.Fatalf("op %d: lru order(%d) = %v, stamps give %v", op, s, got, want)
				}
				if got := p.order(s); !bytes.Equal(got, want) {
					t.Fatalf("op %d: pdp shadow order(%d) = %v, stamps give %v", op, s, got, want)
				}
				lruWay, lowest := -1, -1
				if len(want) > 0 {
					lruWay = int(want[len(want)-1])
				}
				for w := ways - 1; w >= 0; w-- {
					if ref.valid[s*ways+w] && !p.prot.Protected(s, w) {
						lowest = w
					}
				}
				if v, sp := l.victim(s), l.spare(s); v != lruWay || sp != lruWay {
					t.Fatalf("op %d: lru victim/spare(%d) = %d/%d, want %d", op, s, v, sp, lruWay)
				}
				if got := p.spare(s); got != lowest {
					t.Fatalf("op %d: pdp spare(%d) = %d, want %d", op, s, got, lowest)
				}
				if got, want := ln.freeWay(s), ref.freeWay(s); got != want {
					t.Fatalf("op %d: freeWay(%d) = %d, want %d", op, s, got, want)
				}
			}
			for _, k := range pool {
				kh := hash(k)
				ks := int(kh % sets)
				got, want := ln.find(ks, kh, k), ref.find(ks, kh, k)
				if got != want {
					t.Fatalf("op %d: find(%q) = %d, want %d", op, k, got, want)
				}
				if got >= 0 && !bytes.Equal(ln.value(ks, got), ref.vals[ks*ways+got]) {
					t.Fatalf("op %d: value(%q) = %q, want %q", op, k, ln.value(ks, got), ref.vals[ks*ways+got])
				}
			}
			if err := ln.check(1, 0); err != nil {
				t.Fatalf("op %d: %v", op, err)
			}
			if err := l.check(&ln); err != nil {
				t.Fatalf("op %d: %v", op, err)
			}
			if err := p.check(&ln); err != nil {
				t.Fatalf("op %d: %v", op, err)
			}
		}
	})
}

// TestFillTakesLowestEmptyWay pins which way a fill takes: the set's lowest
// empty one, across meta words. The serving decisions depend on it; a
// fill into the highest empty way moved cache_read's hit rate from 0.391
// to 0.486.
func TestFillTakesLowestEmptyWay(t *testing.T) {
	c, err := New(Config{Policy: PolicyLRU, Shards: 1, Sets: 1, Ways: 12})
	if err != nil {
		t.Fatal(err)
	}
	sh := c.shards[0]
	wayOf := func(k string) int { return sh.find(0, hash(k), k) }
	keys := make([]string, 12)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%d", i)
		c.Put(keys[i], []byte{byte(i)})
		if w := wayOf(keys[i]); w != i {
			t.Fatalf("fill %d into an empty cache took way %d", i, w)
		}
	}
	for _, i := range []int{10, 3, 9} {
		c.Delete(keys[i])
	}
	for j, want := range []int{3, 9, 10} {
		k := fmt.Sprintf("n%d", j)
		c.Put(k, []byte{byte(j)})
		if w := wayOf(k); w != want {
			t.Fatalf("fill %d with ways 3, 9 and 10 emptied took way %d, want %d", j, w, want)
		}
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
