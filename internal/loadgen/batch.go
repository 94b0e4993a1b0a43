package loadgen

// The batched client path: one POST /batch carries Batch consecutive ops
// from the worker's stream, and each row of the JSON answer books one
// per-op outcome, so every Result counter keeps its per-operation
// meaning. A row-level "shed" (the key's owner refused its sub-batch)
// books a shed for that op alone; a whole-batch 503 or transport failure
// retries under the same budgets as the unbatched path and, once
// exhausted, books its outcome once per op carried. GET misses fill
// cache-aside exactly like the per-op client, just grouped: all of a
// batch's misses go out together as one follow-up fill batch.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"syscall"
	"time"

	"pdp/internal/batchwire"
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

// doBatch issues one batch of ops and books per-op outcomes from the
// response rows, then fills the batch's GET misses cache-aside.
func (w *worker) doBatch(ctx context.Context, ops []workload.Op) {
	wops := make([]kvcache.BatchOp, len(ops))
	for i, op := range ops {
		wops[i] = kvcache.BatchOp{Kind: batchKinds[op.Kind], Key: fmt.Sprintf("k%016x", op.Key)}
		if op.Kind == workload.OpPut {
			wops[i].Value = w.val(op.Size)
		}
	}
	rows, out := w.exchangeBatch(ctx, wops)
	if out != outOK {
		for range ops {
			w.book(out)
		}
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
	// The fill batch mirrors the per-op client's miss-fill PUT: the misses
	// already counted as ops, so fill rows book only denies and failures.
	frows, fout := w.exchangeBatch(ctx, fills)
	if fout != outOK {
		for range fills {
			w.book(fout)
		}
		return
	}
	for _, row := range frows {
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

// exchangeBatch is the batch analogue of exchange: whole-batch sheds and
// transport failures back off and retry under the regular budget,
// refused connections under the ramp budget, and each retryable failure
// rotates targets. On outOK the returned rows are exactly one per op, and
// hold until the worker's next exchange. The body is built anew for every
// batch: the transport may still read the last one after Do returned.
func (w *worker) exchangeBatch(ctx context.Context, wops []kvcache.BatchOp) ([]batchwire.Row, outcome) {
	body := batchwire.AppendOps(nil, wops)
	for attempt, ramp := 0, 0; ; {
		rows, out := w.onceBatch(ctx, body, len(wops))
		if out == outOK {
			return rows, outOK
		}
		if out == outRefused {
			w.refused++
			if ramp >= w.rampRetries || ctx.Err() != nil {
				return nil, outTransport
			}
			ramp++
			w.rotate()
			w.sleepBackoff(ramp)
			continue
		}
		retryable := out == outShed || out == outTransport
		if !retryable || attempt >= w.maxRetries || ctx.Err() != nil {
			return nil, out
		}
		attempt++
		w.retries++
		w.rotate()
		w.sleepBackoff(attempt)
	}
}

// onceBatch issues a single batch attempt against the current target and
// books attempt-level per-target attribution, row by row on success.
func (w *worker) onceBatch(ctx context.Context, body []byte, n int) ([]batchwire.Row, outcome) {
	tgt := w.target()
	rows, out := w.attemptBatch(ctx, tgt, body, n)
	if ts := w.tstats[tgt]; ts != nil {
		switch out {
		case outOK:
			for _, row := range rows {
				switch row.Status {
				case "hit":
					ts.answers++
					ts.hits++
				case "miss":
					ts.answers++
					ts.misses++
				case "shed":
					ts.sheds++
				case "too_large", "error":
					ts.errors++
				default:
					ts.answers++
				}
			}
		case outShed:
			ts.sheds += uint64(n)
		default:
			ts.errors += uint64(n)
		}
	}
	return rows, out
}

// attemptBatch posts one batch and classifies the answer. Latency is
// observed amortized: wall time divided by the batch size, once per op,
// so the histogram stays per-operation comparable with the unbatched
// path.
func (w *worker) attemptBatch(ctx context.Context, tgt string, body []byte, n int) ([]batchwire.Row, outcome) {
	if w.deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, w.deadline)
		defer cancel()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, tgt+"/batch", bytes.NewReader(body))
	if err != nil {
		return nil, outTransport
	}
	req.Header.Set("Content-Type", "application/json")
	if w.deadline > 0 {
		req.Header.Set("X-Deadline", w.deadline.String())
	}
	t0 := time.Now()
	resp, err := w.client.Do(req)
	if err != nil {
		switch {
		case isTimeout(err):
			return nil, outTimeout
		case errors.Is(err, syscall.ECONNREFUSED):
			return nil, outRefused
		default:
			return nil, outTransport
		}
	}
	w.resp.Reset()
	_, rerr := w.resp.ReadFrom(resp.Body)
	resp.Body.Close()
	per := uint64(time.Since(t0).Nanoseconds()) / uint64(n)
	w.hist.ObserveN(per, uint64(n))
	if th := w.thists[tgt]; th != nil {
		th.ObserveN(per, uint64(n))
	}
	switch {
	case resp.StatusCode == http.StatusServiceUnavailable:
		return nil, outShed
	case resp.StatusCode == http.StatusGatewayTimeout:
		return nil, outTimeout
	case resp.StatusCode != http.StatusOK:
		// Any other non-200 — 5xx, or a 4xx the client should never have
		// provoked — is the exchange misbehaving.
		return nil, outServer
	case rerr != nil:
		return nil, outTransport
	}
	if w.rows, w.arena, err = batchwire.ParseRows(w.resp.Bytes(), w.rows, w.arena); err != nil || len(w.rows) != n {
		return nil, outServer
	}
	return w.rows, outOK
}
