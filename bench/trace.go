package main

import (
	"encoding/binary"
	"hash/fnv"

	"pdp/internal/workload"
)

// A trace is a client's op sequence packed 8 bytes per op: the op kind in
// bits 60-61 over the stream's key id (ids use bits 0-59 and bit 62 for
// scan keys). Packing keeps 4M ops per client at 32 MiB, long enough that
// a replayed key's per-set reuse distance exceeds d_max, so cyclic replay
// does not hand the policy reuse the mix does not have.
const kindShift = 60

func packOp(op workload.Op) uint64 { return uint64(op.Kind)<<kindShift | op.Key }

func unpackOp(v uint64) (workload.OpKind, uint64) {
	return workload.OpKind(v >> kindShift & 3), v &^ (3 << kindShift)
}

const scanBit = 1 << 62 // set in the stream's scan-key ids

// genTrace draws client w's n ops from the mix, with seed+w. Hot keys are
// shared between clients. The looping-scan pool is split between them, a
// disjoint share each: were both to loop over one pool in step, whether
// the second reader of a scan key hits would depend on how closely the two
// goroutines happen to run, and the hit rate on the scheduler.
func genTrace(mix workload.ServiceConfig, seed uint64, w, n int) []uint64 {
	mix.ScanLoop /= nClients
	s := workload.NewServiceStream(mix, seed+uint64(w))
	ops := make([]uint64, n)
	for i := range ops {
		op := s.Next()
		if op.Key&scanBit != 0 {
			op.Key += uint64(w * mix.ScanLoop)
		}
		ops[i] = packOp(op)
	}
	return ops
}

func traceHash(ops []uint64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range ops {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	return h.Sum64()
}

// mix64 is the splitmix64 finalizer; key ids are small integers and need
// spreading before they choose a size or seed a value.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

const hexDigits = "0123456789abcdef"

// appendKey renders id the way pdpload does ("k" + 16 hex digits).
func appendKey(dst []byte, id uint64) []byte {
	dst = append(dst, 'k')
	for s := 60; s >= 0; s -= 4 {
		dst = append(dst, hexDigits[id>>uint(s)&15])
	}
	return dst
}

var valueSizes = [...]int{64, 128, 256, 512, 1024}

// Value size and bytes are a pure function of the key, so a GET hit can be
// checked byte for byte no matter which client wrote it or when.
func valueSize(id uint64) int { return valueSizes[mix64(id)%uint64(len(valueSizes))] }

const valueStride = 0x9e3779b97f4a7c15

func appendValue(dst []byte, id uint64) []byte {
	w := mix64(id ^ valueStride)
	for n := valueSize(id) / 8; n > 0; n-- {
		dst = binary.LittleEndian.AppendUint64(dst, w)
		w += valueStride
	}
	return dst
}

func valueOK(v []byte, id uint64) bool {
	if len(v) != valueSize(id) {
		return false
	}
	w := mix64(id ^ valueStride)
	for ; len(v) >= 8; v = v[8:] {
		if binary.LittleEndian.Uint64(v) != w {
			return false
		}
		w += valueStride
	}
	return true
}
