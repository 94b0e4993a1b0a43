// Package batchwire is the one codec of POST /batch, on the client hop and
// the peer hop alike: a JSON array of op objects in, a JSON array of row
// objects out (DESIGN.md §8 has the grammar). The decoder is one forward
// pass that fills what kvcache.ExecBatch takes and base64-decodes values
// into a caller-owned arena. Tokens off the fast path (strings with escapes
// or non-ASCII bytes, values of unknown fields) go one at a time to
// encoding/json, so they mean here what they mean there.
package batchwire

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"errors"
	"math"
	"slices"

	"pdp/internal/kvcache"
)

// Row is one op's answer. Status is a kvcache.BatchStatus.String or one of
// the statuses below; Node is the node that executed the op.
type Row struct {
	Status string
	Value  []byte
	Node   string
	Error  string
}

// Statuses of the serving layer: a value over the server's limit, an owner
// whose gate refused its sub-batch (retryable), a malformed op (see Error).
const (
	StatusTooLarge = "too_large"
	StatusShed     = "shed"
	StatusError    = "error"
)

// Kinds ParseOps gives the rows that cannot execute.
const (
	Unknown  kvcache.BatchOpKind = 254 // not get, put or delete; Value holds the verb
	TooLarge kvcache.BatchOpKind = 255 // a put of more than maxValue bytes; Value is nil
)

var (
	ErrSyntax     = errors.New("batchwire: malformed batch JSON")
	ErrTooManyOps = errors.New("batchwire: too many ops")

	verbs    = [...]string{kvcache.BatchGet: "get", kvcache.BatchPut: "put", kvcache.BatchDelete: "delete"}
	statuses = [...]string{"hit", "miss", "stored", "denied", "deleted", "not_found", StatusTooLarge, StatusShed, StatusError}
)

// AppendOps appends the request body for ops (get, put and delete only).
func AppendOps(dst []byte, ops []kvcache.BatchOp) []byte {
	n := 2
	for i := range ops {
		n += 40 + len(ops[i].Key) + base64.StdEncoding.EncodedLen(len(ops[i].Value))
	}
	dst = append(slices.Grow(dst, n), '[') // one allocation for a nil dst, unless keys need escapes
	for i := range ops {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(append(dst, `{"op":"`...), verbs[ops[i].Kind]...)
		dst = appendString(append(dst, `","key":`...), ops[i].Key)
		if ops[i].Kind == kvcache.BatchPut {
			dst = appendValue(dst, ops[i].Value)
		}
		dst = append(dst, '}')
	}
	return append(dst, ']')
}

// AppendRows appends the response body for rows.
func AppendRows(dst []byte, rows []Row) []byte {
	dst = append(dst, '[')
	for i := range rows {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendString(append(dst, `{"status":`...), rows[i].Status)
		dst = appendValue(dst, rows[i].Value)
		if rows[i].Node != "" {
			dst = appendString(append(dst, `,"node":`...), rows[i].Node)
		}
		if rows[i].Error != "" {
			dst = appendString(append(dst, `,"error":`...), rows[i].Error)
		}
		dst = append(dst, '}')
	}
	return append(dst, ']')
}

func appendValue(dst, v []byte) []byte {
	if len(v) == 0 {
		return dst
	}
	dst = base64.StdEncoding.AppendEncode(append(dst, `,"value":"`...), v)
	return append(dst, '"')
}

func appendString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c == '"' || c == '\\' {
			b, _ := json.Marshal(s) // rare: encoding/json knows the escapes
			return append(dst, b...)
		}
	}
	return append(append(append(dst, '"'), s...), '"')
}

// ParseOps decodes a request body into ops[:0], one op per row, with the
// values in arena[:0]. Each key is its own allocation: shards and the
// decision log retain keys, and one that aliased body or arena would pin
// the whole buffer. It stops with ErrTooManyOps before building row
// maxOps+1, and does not decode a value of more than maxValue bytes.
func ParseOps(body []byte, ops []kvcache.BatchOp, arena []byte, maxOps int, maxValue int64) ([]kvcache.BatchOp, []byte, error) {
	d, ops, arena := dec{b: body}, ops[:0], arena[:0]
	for d.next(len(ops), '[') {
		if len(ops) == maxOps {
			return ops, arena, ErrTooManyOps
		}
		var op kvcache.BatchOp
		var verb, key []byte
		var big bool
		for n := 0; d.next(n, '{'); n++ {
			switch string(d.name()) {
			case "op":
				verb = d.text(verb)
			case "key":
				key = d.text(key)
			case "value":
				op.Value, arena, big = d.value(arena, maxValue)
			default:
				d.skip()
			}
		}
		switch op.Key = string(key); string(verb) {
		case "get":
			op.Kind = kvcache.BatchGet
		case "put":
			if op.Kind = kvcache.BatchPut; big {
				op.Kind = TooLarge
			}
		case "delete":
			op.Kind = kvcache.BatchDelete
		default:
			op.Kind, op.Value = Unknown, verb
		}
		ops = append(ops, op)
	}
	return ops, arena, d.end()
}

// ParseRows decodes a response body into rows[:0], values in arena[:0].
func ParseRows(body []byte, rows []Row, arena []byte) ([]Row, []byte, error) {
	d, rows, arena := dec{b: body}, rows[:0], arena[:0]
	last := "" // rows of one answer mostly share their node: allocate it once
	for d.next(len(rows), '[') {
		var r Row
		var status, node, msg []byte
		for n := 0; d.next(n, '{'); n++ {
			switch string(d.name()) {
			case "status":
				status = d.text(status)
			case "value":
				r.Value, arena, _ = d.value(arena, math.MaxInt64)
			case "node":
				node = d.text(node)
			case "error":
				msg = d.text(msg)
			default:
				d.skip()
			}
		}
		r.Status, r.Node, r.Error = intern(status, statuses[:]...), intern(node, last), string(msg)
		last = r.Node
		rows = append(rows, r)
	}
	return rows, arena, d.end()
}

// intern returns the member of known equal to s, or a new string.
func intern(s []byte, known ...string) string {
	for _, k := range known {
		if k == string(s) {
			return k
		}
	}
	return string(s)
}

// dec is a cursor over a body. A syntax error sets bad; from then on no
// method moves the cursor past the end, and end reports the error.
type dec struct {
	b   []byte
	i   int
	bad bool
}

// peek skips whitespace and returns the next byte, 0 at the end.
func (d *dec) peek() byte {
	for ; d.i < len(d.b); d.i++ {
		if c := d.b[d.i]; c != ' ' && c != '\n' && c != '\t' && c != '\r' {
			return c
		}
	}
	return 0
}

// eat consumes c, or fails.
func (d *dec) eat(c byte) bool {
	if d.bad = d.bad || d.peek() != c; d.bad {
		return false
	}
	d.i++
	return true
}

// open consumes c. Where encoding/json takes null for a slice, a struct or
// a string, so does open: it consumes the literal and reports false.
func (d *dec) open(c byte) bool {
	if d.peek() == 'n' && bytes.HasPrefix(d.b[d.i:], []byte("null")) {
		d.i += 4
		return false
	}
	return d.eat(c)
}

// next reports whether member n of the array ('[') or object ('{') follows.
// Before member 0 it consumes the opener, before the others the comma, and
// after the last the closer, which in ASCII is the opener plus two.
func (d *dec) next(n int, opener byte) bool {
	if n == 0 && !d.open(opener) {
		return false
	}
	if d.peek() == opener+2 {
		d.i++
		return false
	}
	return !d.bad && (n == 0 || d.eat(','))
}

// end is the verdict once the top-level value is consumed.
func (d *dec) end() error {
	if d.bad || d.peek() != 0 || d.i < len(d.b) {
		return ErrSyntax
	}
	return nil
}

// str scans a string whose opening quote is consumed, to past its closing
// quote. It returns the text between them and whether that has escapes.
func (d *dec) str() (raw []byte, esc bool) {
	for start := d.i; !d.bad; {
		q := bytes.IndexByte(d.b[d.i:], '"')
		if q < 0 {
			break
		}
		e := bytes.IndexByte(d.b[d.i:d.i+q], '\\')
		if e < 0 {
			d.i += q + 1
			return d.b[start : d.i-1], esc
		}
		d.i, esc = d.i+e+2, true // the escaped byte cannot close the string
	}
	d.bad = true
	return nil, false
}

// slow decodes into v the string token that str just scanned as raw, the
// way encoding/json does: escapes, surrogates, invalid UTF-8, and a syntax
// error for a raw control character.
func (d *dec) slow(raw []byte, v any) {
	d.bad = d.bad || json.Unmarshal(d.b[d.i-len(raw)-2:d.i], v) != nil
}

// text consumes a string and returns its value, the bytes between the
// quotes when they are printable ASCII without escapes; for null, which
// leaves a string field as it was, it returns old.
func (d *dec) text(old []byte) []byte {
	if !d.open('"') {
		return old
	}
	raw, esc := d.str()
	for _, c := range raw {
		esc = esc || c < 0x20 || c >= 0x80
	}
	if esc {
		var s string
		d.slow(raw, &s)
		return []byte(s)
	}
	return raw
}

// name consumes a field name and its colon.
func (d *dec) name() []byte {
	d.bad = d.bad || d.peek() != '"' // not null
	s := d.text(nil)
	d.eat(':')
	return s
}

// value consumes a base64 string, appends its bytes to arena and returns
// them; null is a nil value. A value of more than limit bytes is not
// decoded: big is reported, judged from the length of the text alone.
func (d *dec) value(arena []byte, limit int64) (val, grown []byte, big bool) {
	if !d.open('"') {
		return nil, arena, false
	}
	raw, esc := d.str()
	if esc || bytes.IndexByte(raw, '\n') >= 0 || bytes.IndexByte(raw, '\r') >= 0 {
		// base64 skips newlines, JSON allows them only escaped.
		var v []byte // not val: its address escapes, and would on every call
		d.slow(raw, &v)
		if int64(len(v)) > limit {
			return nil, arena, true
		}
		return v, arena, false
	}
	if n := len(raw)/4*3 - bytes.Count(raw[max(0, len(raw)-2):], []byte("=")); int64(n) > limit {
		for _, c := range raw {
			d.bad = d.bad || c < 0x20 // still JSON, though unchecked as base64
		}
		return nil, arena, true
	}
	// A grown arena leaves earlier values in the old one, which stays theirs.
	grown, err := base64.StdEncoding.AppendDecode(arena, raw)
	d.bad = d.bad || err != nil
	return grown[len(arena):], grown, false
}

// skip consumes the value of a field the grammar does not name.
func (d *dec) skip() {
	if d.peek(); d.bad {
		return
	}
	jd := json.NewDecoder(bytes.NewReader(d.b[d.i:]))
	var v json.RawMessage
	d.bad = jd.Decode(&v) != nil
	d.i += int(jd.InputOffset())
}
