package main

import (
	"bufio"
	"fmt"
	"os"
	"strconv"
)

// Spans are recorded by the bench, from outside, around each call into a
// layer; the layers themselves stay unaware. They are kept in memory in a
// preallocated slab and written out only when the run has ended, so the
// traced pass pays two clock reads and one slab store per span.

type spanKind uint8

const (
	spNone spanKind = iota
	// Roots: one trace op or one batch as the client sees it, key building,
	// value checking and any cache-aside fill included.
	spClientOp
	spClientBatch
	// Children: one call into a layer, named layer.outcome.
	spCacheGetHit
	spCacheGetMiss
	spCachePut
	spCacheDelete
	spCacheExecBatch
	spServerGetHit
	spServerGetMiss
	spServerPut
	spServerDelete
	spServerBatch
	spSimTask
	nSpanKinds
)

var spanNames = [nSpanKinds]string{
	spNone: "-", spClientOp: "client.op", spClientBatch: "client.batch",
	spCacheGetHit: "kvcache.get_hit", spCacheGetMiss: "kvcache.get_miss",
	spCachePut: "kvcache.put", spCacheDelete: "kvcache.delete",
	spCacheExecBatch: "kvcache.execbatch",
	spServerGetHit:   "kvserver.get_hit", spServerGetMiss: "kvserver.get_miss",
	spServerPut: "kvserver.put", spServerDelete: "kvserver.delete",
	spServerBatch: "kvserver.batch32", spSimTask: "experiments.runsingle",
}

// span is one recorded interval. req identifies the client-side request
// (the root's ordinal on its client) every span of that request shares;
// parent is the kind of the span that caused this one, spNone for a root.
type span struct {
	start  int64 // ns since the window began
	dur    uint32
	req    uint32
	kind   spanKind
	parent spanKind
	client uint8
}

// spanLog is one goroutine's slab. It is not shared while recording.
type spanLog struct {
	spans   []span
	dropped uint64
}

func newSpanLog(capacity int) *spanLog { return &spanLog{spans: make([]span, 0, capacity)} }

func (l *spanLog) add(s span) {
	if len(l.spans) < cap(l.spans) {
		l.spans = append(l.spans, s)
	} else {
		l.dropped++
	}
}

// kindStat is the count and summed duration of one span kind.
type kindStat struct {
	n  uint64
	ns uint64
}

func (k kindStat) meanNS() float64 { return ratio(float64(k.ns), float64(k.n)) }

// sumKinds adds up the kinds from..to of a tally.
func sumKinds(st [nSpanKinds]kindStat, from, to spanKind) (sum kindStat) {
	for k := from; k <= to; k++ {
		sum.n, sum.ns = sum.n+st[k].n, sum.ns+st[k].ns
	}
	return sum
}

func tally(logs []*spanLog) (st [nSpanKinds]kindStat) {
	for _, l := range logs {
		for _, s := range l.spans {
			st[s.kind].n++
			st[s.kind].ns += uint64(s.dur)
		}
	}
	return st
}

// writeSpans dumps the logs as tab-separated text, one span per line.
func writeSpans(path string, logs []*spanLog) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	w := bufio.NewWriterSize(f, 1<<20)
	w.WriteString("name\tparent\tclient\treq\tstart_ns\tdur_ns\n")
	var b []byte
	for _, l := range logs {
		for _, s := range l.spans {
			b = append(b[:0], spanNames[s.kind]...)
			b = append(b, '\t')
			b = append(b, spanNames[s.parent]...)
			b = append(b, '\t')
			b = strconv.AppendUint(b, uint64(s.client), 10)
			b = append(b, '\t')
			b = strconv.AppendUint(b, uint64(s.req), 10)
			b = append(b, '\t')
			b = strconv.AppendInt(b, s.start, 10)
			b = append(b, '\t')
			b = strconv.AppendUint(b, uint64(s.dur), 10)
			b = append(b, '\n')
			w.Write(b)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
