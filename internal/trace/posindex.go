package trace

import "math/bits"

// posIndex maps a line address to the index of its most recent access. It is
// an open-addressed table with linear probing and backward-shift deletion,
// grown by doubling so that its size follows the addresses actually live.
// Key 0 marks an empty slot: RDDGen.freshAddr never returns 0. The zero
// value must be reset before use.
type posIndex struct {
	slots []posSlot // length is a power of two
	n     int       // live keys
	shift uint      // 64 - log2(len(slots))
}

type posSlot struct {
	key uint64
	pos int64
}

const posIndexMinSlots = 16

// reset empties the index, keeping the table it has grown to.
func (x *posIndex) reset() {
	if x.slots == nil {
		x.alloc(posIndexMinSlots)
	} else if x.n > 0 {
		clear(x.slots)
	}
	x.n = 0
}

func (x *posIndex) alloc(slots int) {
	x.slots = make([]posSlot, slots)
	x.shift = uint(64 - bits.TrailingZeros(uint(slots)))
}

// home is key's preferred slot (Fibonacci hashing: a generator's keys share
// their base bits and are multiples of LineSize; the multiply spreads the
// bits that do differ over the top ones).
func (x *posIndex) home(key uint64) int {
	return int(key * 0x9E3779B97F4A7C15 >> x.shift)
}

func (x *posIndex) get(key uint64) (int64, bool) {
	mask := len(x.slots) - 1
	for i := x.home(key); ; i = (i + 1) & mask {
		switch s := x.slots[i]; s.key {
		case key:
			return s.pos, true
		case 0:
			return 0, false
		}
	}
}

func (x *posIndex) set(key uint64, pos int64) {
	// Kept at most half full (counting key as new, so an overwrite at the
	// threshold grows one insert early): probe chains stay short and a probe
	// always ends at an empty slot.
	if 2*(x.n+1) > len(x.slots) {
		x.grow()
	}
	mask := len(x.slots) - 1
	i := x.home(key)
	for x.slots[i].key != key {
		if x.slots[i].key == 0 {
			x.n++
			break
		}
		i = (i + 1) & mask
	}
	x.slots[i] = posSlot{key, pos}
}

func (x *posIndex) grow() {
	old := x.slots
	x.alloc(2 * len(old))
	mask := len(x.slots) - 1
	for _, s := range old {
		if s.key == 0 {
			continue
		}
		i := x.home(s.key)
		for x.slots[i].key != 0 {
			i = (i + 1) & mask
		}
		x.slots[i] = s
	}
}

func (x *posIndex) delete(key uint64) {
	mask := len(x.slots) - 1
	i := x.home(key)
	for x.slots[i].key != key {
		if x.slots[i].key == 0 {
			return
		}
		i = (i + 1) & mask
	}
	x.n--
	// Backward shift: close the hole at i with the later entries of its
	// probe chain. The entry at j may move to i unless its home lies in the
	// cyclic range (i, j], in which case a probe for it never passes i.
	for j := (i + 1) & mask; x.slots[j].key != 0; j = (j + 1) & mask {
		if (j-x.home(x.slots[j].key))&mask >= (j-i)&mask {
			x.slots[i] = x.slots[j]
			i = j
		}
	}
	x.slots[i] = posSlot{}
}
