package workload

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"
)

// serviceGoldenN is how many ops of each serving stream are pinned.
const serviceGoldenN = 1 << 20

// opsHash is an FNV-1a over (Kind, Key, Size) of the next n ops of s.
func opsHash(s *ServiceStream, n int) string {
	h := fnv.New64a()
	var rec [17]byte
	for i := 0; i < n; i++ {
		op := s.Next()
		rec[0] = byte(op.Kind)
		binary.LittleEndian.PutUint64(rec[1:], op.Key)
		binary.LittleEndian.PutUint64(rec[9:], uint64(op.Size))
		h.Write(rec[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// benchServiceShapes are the serving benchmark's two 1 M-key mixes,
// copied from bench/spec.go at its full size: readMix with the looping
// scan pool halved, as each of the two clients draws it, and writeMix.
// They are literals so that the bench module stays free to change
// without moving this pin silently.
var benchServiceShapes = map[string]ServiceConfig{
	"bench readMix/client": {Keys: 1_000_000, ZipfS: 0.99, PutFrac: 0.05,
		ScanEvery: 300, ScanLen: 300, ScanLoop: 200_000 / 2},
	"bench writeMix": {Keys: 1_000_000, ZipfS: 0.99, PutFrac: 0.5,
		DeleteFrac: 0.05, ChurnEvery: 50},
}

// TestServiceStreamGoldens pins the op streams of every ServiceMixes
// preset (seed goldenSeed) and of the bench's two 1 M-key mixes (seed 1,
// the bench's first client), so a change to the serving generator that
// moves any op shows here. Rewrite testdata/service_goldens.json with
// -update only for a change that means to move the streams.
func TestServiceStreamGoldens(t *testing.T) {
	got := map[string]string{}
	for name, cfg := range ServiceMixes() {
		got["preset "+name] = opsHash(NewServiceStream(cfg, goldenSeed), serviceGoldenN)
	}
	for name, cfg := range benchServiceShapes {
		got[name] = opsHash(NewServiceStream(cfg, 1), serviceGoldenN)
	}
	checkGoldens(t, "testdata/service_goldens.json", got)
}
