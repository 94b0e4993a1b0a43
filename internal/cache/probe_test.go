package cache

import "testing"

// linearFind is the tag lookup the probe replaced, kept as its oracle: one
// scan over a set's keys, tag+1 per way and 0 for an empty way, for the hit
// and for the lowest empty way before it.
func linearFind(keys []uint64, tag uint64) (way, free int) {
	free = -1
	for w, k := range keys {
		if k == tag+1 {
			return w, free
		}
		if k == 0 && free < 0 {
			free = w
		}
	}
	return -1, free
}

// probePool is the tags FuzzProbe places and looks up: 32 that share one
// fingerprint, 32 small ones and the 8 widest a way stores, just below 2^32.
func probePool() []uint64 {
	var pool []uint64
	for tag := uint64(1 << 20); len(pool) < 32; tag++ {
		if Fingerprint(tag) == Fingerprint(1<<20) {
			pool = append(pool, tag)
		}
	}
	for tag := uint64(0); tag < 32; tag++ {
		pool = append(pool, tag)
	}
	for tag := uint64(1<<32 - 8); tag < 1<<32; tag++ {
		pool = append(pool, tag)
	}
	return pool
}

// FuzzProbe lays out both sets of a 2-set cache of 1+ways%40 ways from the input,
// one byte per way: bit 0 clear leaves the way empty, else the way holds
// pool tag byte>>2, dirty when bit 1 is set (a tag already resident in the
// set leaves the way empty). Then find must answer every pool tag in each
// set as linearFind does.
func FuzzProbe(f *testing.F) {
	pool := probePool()
	for _, w := range []int{1, 8, 12, 16, 20, 40} {
		// Both sets full of distinct tags, every third way dirty; then the
		// same with a hole.
		layout := make([]byte, 2*w)
		for i := range layout {
			layout[i] = byte(i%64)<<2 | 1
			if i%3 == 0 {
				layout[i] |= 2
			}
		}
		f.Add(uint8(w-1), layout)
		layout[len(layout)/3] = 0
		f.Add(uint8(w-1), layout)
	}
	f.Fuzz(func(t *testing.T, ways uint8, layout []byte) {
		w := 1 + int(ways)%40
		const sets = 2
		c := New(Config{Name: "f", Sets: sets, Ways: w, LineSize: 64}, NewLRU(sets, w))
		keys := make([]uint64, sets*w)
		for i := range keys {
			if i >= len(layout) || layout[i]&1 == 0 {
				continue
			}
			set, tag := i/w, pool[int(layout[i]>>2)%len(pool)]
			if way, _ := linearFind(keys[set*w:(set+1)*w], tag); way >= 0 {
				continue
			}
			fp := Fingerprint(tag)
			if layout[i]&2 != 0 {
				fp |= dirtyBit
			}
			c.tags[i] = uint32(tag)
			c.setMeta(set, i%w, fp)
			keys[i] = tag + 1
		}
		for set := 0; set < sets; set++ {
			for _, tag := range pool {
				gotWay, gotFree := c.find(set, (tag*sets+uint64(set))*64)
				wantWay, wantFree := linearFind(keys[set*w:(set+1)*w], tag)
				if gotWay != wantWay || gotFree != wantFree {
					t.Fatalf("ways %d, set %d, tag %#x: find = (%d, %d), linear scan (%d, %d); keys %v",
						w, set, tag, gotWay, gotFree, wantWay, wantFree, keys[set*w:(set+1)*w])
				}
			}
		}
	})
}
