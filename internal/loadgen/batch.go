package loadgen

// The one booking path: a group of consecutive ops from the worker's
// stream goes out as one request (POST /batch, or the /kv/ request of a
// group of one), and each row of the answer books one per-op outcome, so
// every Result counter keeps its per-operation meaning on both protocols.
// A row-level "shed" (the key's owner refused its sub-batch) books a shed
// for that op alone; a whole-request 503 or transport failure retries under
// the exchange budgets and, once exhausted, books its outcome once per op
// carried. GET misses fill cache-aside, grouped: all of a group's misses go
// out together as one follow-up fill group.

import (
	"context"
	"fmt"

	"pdp/internal/kvcache"
	"pdp/internal/workload"
)

var batchKinds = [...]kvcache.BatchOpKind{workload.OpGet: kvcache.BatchGet,
	workload.OpPut: kvcache.BatchPut, workload.OpDelete: kvcache.BatchDelete}

// val returns the worker's deterministic value buffer sliced to size.
// The request body copies the bytes, so every PUT row of a batch can alias
// the same buffer.
func (w *worker) val(size int) []byte {
	if size <= 0 {
		size = 64
	}
	for size > len(w.buf) {
		w.buf = append(w.buf, make([]byte, len(w.buf))...)
	}
	return w.buf[:size]
}

// doBatch issues one group of ops and books per-op outcomes from the
// response rows, then fills the group's GET misses cache-aside.
func (w *worker) doBatch(ctx context.Context, ops []workload.Op) {
	wops := make([]kvcache.BatchOp, len(ops))
	for i, op := range ops {
		wops[i] = kvcache.BatchOp{Kind: batchKinds[op.Kind], Key: fmt.Sprintf("k%016x", op.Key)}
		if op.Kind == workload.OpPut {
			wops[i].Value = w.val(op.Size)
		}
	}
	rows, out := w.exchange(ctx, wops)
	if out != outOK {
		w.book(out, len(ops))
		return
	}
	var fills []kvcache.BatchOp
	for i, row := range rows {
		switch row.Status {
		case "hit":
			w.ops++
			w.hits++
		case "miss":
			w.ops++
			w.misses++
			if wops[i].Kind == kvcache.BatchGet {
				fills = append(fills, kvcache.BatchOp{Kind: kvcache.BatchPut, Key: wops[i].Key, Value: w.val(ops[i].Size)})
			}
		case "stored", "deleted", "not_found":
			w.ops++
		case "denied":
			w.ops++
			w.denies++
		case "shed":
			w.sheds++
		default: // "too_large", "error", or an unknown future status
			w.server5xx++
		}
	}
	if len(fills) == 0 || ctx.Err() != nil {
		return
	}
	// The misses already counted as ops, so fill rows book only denies and
	// failures.
	if rows, out = w.exchange(ctx, fills); out != outOK {
		w.book(out, len(fills))
		return
	}
	for _, row := range rows {
		switch row.Status {
		case "denied":
			w.denies++
		case "shed":
			w.sheds++
		case "stored":
		default:
			w.server5xx++
		}
	}
}
