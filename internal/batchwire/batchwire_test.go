package batchwire

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"pdp/internal/kvcache"
)

// jsonOp and jsonRow are the /batch rows as encoding/json sees them, the
// shapes the server and its clients used before this package: the oracle.
type jsonOp struct {
	Op    string `json:"op"`
	Key   string `json:"key"`
	Value []byte `json:"value,omitempty"`
}

type jsonRow struct {
	Status string `json:"status"`
	Value  []byte `json:"value,omitempty"`
	Node   string `json:"node,omitempty"`
	Error  string `json:"error,omitempty"`
}

const noLimit = 1 << 40

const escapedSeed = `[{"k\u0065y":"café \"q\" \\ 😀 \ud83d","op":"get"},{"op":"put","key":"clé","value":"YQ=="}]`

// seedBodies are the request and answer bodies of kvserver's batch tests,
// then an escaped key and name, whitespace everywhere, and the edges of the
// grammar: null where encoding/json takes it, duplicates, unknown fields.
var seedBodies = []string{
	`[{"op":"put","key":"a","value":"YWxwaGE="},{"op":"get","key":"a"},{"op":"get","key":"absent"},{"op":"delete","key":"a"},{"op":"frob","key":"a"},{"op":"get","key":""}]`,
	`[{"status":"stored","node":"http://127.0.0.1:8081"},{"status":"hit","value":"YWxwaGE=","node":"http://127.0.0.1:8081"},{"status":"error","error":"unknown op frob"},{"status":"too_large"},{"status":"shed","node":"n2"}]`,
	`[]`, `{not json`, `[{"`, `null`, `[null]`, `[{}]`,
	escapedSeed,
	" [ \n{ \"key\" :\t\"k1\" , \"op\" : \"put\" ,\r\n \"value\" : \"AAEC\" } ,\n { \"op\":\"get\" , \"key\":\"k1\" }\n ] \n",
	`[{"op":"put","op":"get","key":"a","key":null,"value":"YQ==","value":null,"extra":{"a":[1,2.5e3,true,null,"x"]},"n":-0.1}]`,
	`[{"op":"put","key":"k","value":"YQ=\n="}]`, "[{\"op\":\"put\",\"key\":\"k\",\"value\":\"YQ=\n=\"}]",
	`[{"op":"get","key":"k"}] x`, `[{"op":"get","key":"k"},]`, `[{"op":1}]`, `[{"Key":"folded"}]`, `[{"value":[1,2]}]`,
}

// diverges reports the two shapes encoding/json accepts differently from
// the grammar: a field name that matches only when case is folded, and a
// "value" given as an array of numbers.
func diverges(body []byte, names ...string) bool {
	jd := json.NewDecoder(bytes.NewReader(body))
	if tok, _ := jd.Token(); tok != json.Delim('[') {
		return false
	}
	for jd.More() {
		tok, err := jd.Token()
		if err != nil {
			return false
		}
		if tok != json.Delim('{') {
			if _, composite := tok.(json.Delim); composite {
				return false
			}
			continue // a scalar element: null passes, the rest both refuse
		}
		for jd.More() {
			name, err := jd.Token()
			var raw json.RawMessage
			if err != nil || jd.Decode(&raw) != nil {
				return false
			}
			for _, n := range names {
				if strings.EqualFold(name.(string), n) && name != n {
					return true
				}
			}
			if name == "value" && raw[0] == '[' {
				return true
			}
		}
		if _, err := jd.Token(); err != nil { // the closing brace
			return false
		}
	}
	return false
}

// verdicts checks what holds on any input: never accept what json.Valid
// rejects, and accept exactly what encoding/json accepts for the old shapes.
func verdicts(t *testing.T, body []byte, err, jerr error) {
	t.Helper()
	if err == nil && !json.Valid(body) {
		t.Fatalf("accepted a body json.Valid rejects: %q", body)
	}
	if (err == nil) != (jerr == nil) {
		t.Fatalf("batchwire says %v, encoding/json says %v: %q", err, jerr, body)
	}
}

func FuzzParseOps(f *testing.F) {
	for _, s := range seedBodies {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		ops, _, err := ParseOps(body, nil, nil, noLimit, noLimit)
		if diverges(body, "op", "key", "value") {
			return
		}
		var want []jsonOp
		jerr := json.Unmarshal(body, &want)
		if verdicts(t, body, err, jerr); err != nil {
			return
		}
		if len(ops) != len(want) {
			t.Fatalf("%d ops, encoding/json has %d: %q", len(ops), len(want), body)
		}
		for i, w := range want {
			got := jsonOp{Key: ops[i].Key, Value: ops[i].Value}
			if ops[i].Kind == Unknown {
				got.Op, got.Value = string(ops[i].Value), w.Value // the verb rides in Value
			} else {
				got.Op = verbs[ops[i].Kind]
			}
			if got.Op != w.Op || got.Key != w.Key || !bytes.Equal(got.Value, w.Value) {
				t.Fatalf("op %d: %+v, encoding/json has %+v: %q", i, got, w, body)
			}
		}
	})
}

func FuzzParseRows(f *testing.F) {
	for _, s := range seedBodies {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		rows, _, err := ParseRows(body, nil, nil)
		if diverges(body, "status", "value", "node", "error") {
			return
		}
		var want []jsonRow
		jerr := json.Unmarshal(body, &want)
		if verdicts(t, body, err, jerr); err != nil {
			return
		}
		if len(rows) != len(want) {
			t.Fatalf("%d rows, encoding/json has %d: %q", len(rows), len(want), body)
		}
		for i, w := range want {
			if g := rows[i]; g.Status != w.Status || g.Node != w.Node || g.Error != w.Error || !bytes.Equal(g.Value, w.Value) {
				t.Fatalf("row %d: %+v, encoding/json has %+v: %q", i, g, w, body)
			}
		}
	})
}

// randText draws a valid UTF-8 string with what a JSON encoder must
// escape and what a decoder must not take the fast path on.
func randText(rng *rand.Rand) string {
	alphabet := []rune("abk0_-/:\"\\\x00\x1f\n\x7fé世😀")
	b := make([]rune, rng.Intn(12))
	for i := range b {
		b[i] = alphabet[rng.Intn(len(alphabet))]
	}
	return string(b)
}

func randBytes(rng *rand.Rand) []byte {
	if rng.Intn(4) == 0 {
		return nil
	}
	b := make([]byte, rng.Intn(200))
	rng.Read(b)
	return b
}

// TestRoundTrip: what AppendOps and AppendRows write, ParseOps and
// ParseRows read back equal, and so does encoding/json into the old
// shapes, for random batches with empty values, empty keys and every status.
func TestRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 300; round++ {
		ops := make([]kvcache.BatchOp, rng.Intn(40))
		for i := range ops {
			ops[i] = kvcache.BatchOp{Kind: kvcache.BatchOpKind(rng.Intn(3)), Key: randText(rng)}
			if ops[i].Kind == kvcache.BatchPut {
				ops[i].Value = randBytes(rng)
			}
		}
		body := AppendOps(nil, ops)
		got, _, err := ParseOps(body, nil, nil, len(ops), noLimit)
		if err != nil || len(got) != len(ops) {
			t.Fatalf("ParseOps(%q): %d ops, %v", body, len(got), err)
		}
		var viaJSON []jsonOp
		if err := json.Unmarshal(body, &viaJSON); err != nil || len(viaJSON) != len(ops) {
			t.Fatalf("encoding/json on %q: %d ops, %v", body, len(viaJSON), err)
		}
		for i, w := range ops {
			if g := got[i]; g.Kind != w.Kind || g.Key != w.Key || !bytes.Equal(g.Value, w.Value) {
				t.Fatalf("op %d: %+v, want %+v", i, g, w)
			}
			if j := viaJSON[i]; j.Op != verbs[w.Kind] || j.Key != w.Key || !bytes.Equal(j.Value, w.Value) {
				t.Fatalf("op %d via encoding/json: %+v, want %+v", i, j, w)
			}
		}

		rows := make([]Row, rng.Intn(40))
		for i := range rows {
			rows[i] = Row{Status: statuses[rng.Intn(len(statuses))], Value: randBytes(rng)}
			if rng.Intn(2) == 0 {
				rows[i].Node = fmt.Sprintf("http://127.0.0.1:%d", 8080+rng.Intn(3))
			}
			if rng.Intn(8) == 0 {
				rows[i].Status, rows[i].Error = "later_"+randText(rng), randText(rng)
			}
		}
		body = AppendRows(nil, rows)
		gotRows, _, err := ParseRows(body, nil, nil)
		var jsonRows []jsonRow
		jerr := json.Unmarshal(body, &jsonRows)
		if err != nil || jerr != nil || len(gotRows) != len(rows) || len(jsonRows) != len(rows) {
			t.Fatalf("rows of %q: %d (%v), encoding/json %d (%v)", body, len(gotRows), err, len(jsonRows), jerr)
		}
		for i, w := range rows {
			j := Row{Status: jsonRows[i].Status, Value: jsonRows[i].Value, Node: jsonRows[i].Node, Error: jsonRows[i].Error}
			for _, g := range []Row{gotRows[i], j} {
				if g.Status != w.Status || g.Node != w.Node || g.Error != w.Error || !bytes.Equal(g.Value, w.Value) {
					t.Fatalf("row %d: %+v, want %+v", i, g, w)
				}
			}
		}
	}
}

// TestSeedVerdicts runs the fuzz seeds as a plain test, so the corpus is
// exercised on every `go test`, and pins the verdict of each edge.
func TestSeedVerdicts(t *testing.T) {
	bad := map[string]bool{`{not json`: true, `[{"`: true, "[{\"op\":\"put\",\"key\":\"k\",\"value\":\"YQ=\n=\"}]": true,
		`[{"op":"get","key":"k"}] x`: true, `[{"op":"get","key":"k"},]`: true, `[{"op":1}]`: true, `[{"value":[1,2]}]`: true}
	for _, s := range seedBodies {
		ops, _, err := ParseOps([]byte(s), nil, nil, noLimit, noLimit)
		if (err != nil) != bad[s] {
			t.Errorf("ParseOps(%q): %v, want an error: %v", s, err, bad[s])
		}
		var want []jsonOp
		if jerr := json.Unmarshal([]byte(s), &want); !diverges([]byte(s), "op", "key", "value") && (jerr == nil) != (err == nil) {
			t.Errorf("ParseOps(%q): %v, encoding/json: %v", s, err, jerr)
		} else if err == nil && len(ops) != len(want) {
			t.Errorf("ParseOps(%q): %d ops, encoding/json has %d", s, len(ops), len(want))
		}
	}
	ops, _, err := ParseOps([]byte(escapedSeed), nil, nil, noLimit, noLimit)
	if err != nil || ops[0].Kind != kvcache.BatchGet || ops[0].Key != "café \"q\" \\ 😀 �" || string(ops[1].Value) != "a" {
		t.Errorf("escaped body: %+v, %v", ops, err)
	}
}

// TestParseOpsLimits: the decoder stops at maxOps rows whatever follows,
// and judges a value's size from its text, before decoding it.
func TestParseOpsLimits(t *testing.T) {
	body := []byte("[" + strings.Repeat(`{"op":"get","key":"a"},`, 100_000) + `{"op":"get","key":"a"}]`)
	allocs := testing.AllocsPerRun(3, func() {
		if ops, _, err := ParseOps(body, nil, nil, 8, noLimit); !errors.Is(err, ErrTooManyOps) || len(ops) != 8 {
			t.Fatalf("%d ops, %v; want 8 and ErrTooManyOps", len(ops), err)
		}
	})
	if allocs > 8+8 { // 8 keys, and the ops slice growing to 8
		t.Errorf("ParseOps past maxOps: %.0f allocations for a %d-byte body, want O(maxOps)", allocs, len(body))
	}
	for _, c := range []struct {
		text string
		kind kvcache.BatchOpKind
	}{{"AAAA", kvcache.BatchPut}, {"AAAAAA==", TooLarge}, {"AAAAAAA=", TooLarge}, {"AAA=", kvcache.BatchPut},
		{`AAAA\nAAA=`, TooLarge}, {`A\nA\r\nA=\n`, kvcache.BatchPut}} {
		ops, arena, err := ParseOps([]byte(`[{"op":"put","key":"k","value":"`+c.text+`"}]`), nil, nil, 1, 3)
		if err != nil || ops[0].Kind != c.kind || (c.kind == TooLarge) != (len(arena) == 0 && ops[0].Value == nil) {
			t.Errorf("value %q with maxValue 3: kind %d value %q arena %d err %v, want kind %d", c.text, ops[0].Kind, ops[0].Value, len(arena), err, c.kind)
		}
	}
}

// TestParseAllocs pins the steady-state cost of the fast path: one
// allocation per key for a request, one per answer.
func TestParseAllocs(t *testing.T) {
	var ops []kvcache.BatchOp
	rows := make([]Row, 32)
	for i := 0; i < 32; i++ {
		ops = append(ops, kvcache.BatchOp{Kind: kvcache.BatchOpKind(i % 3), Key: fmt.Sprintf("k%016x", i)})
		rows[i] = Row{Status: statuses[i%6], Node: "http://127.0.0.1:8081"}
		if ops[i].Kind == kvcache.BatchPut {
			ops[i].Value, rows[i].Value = make([]byte, 300), make([]byte, 300)
		}
	}
	req, ans := AppendOps(nil, ops), AppendRows(nil, rows)
	var arena []byte
	if a := testing.AllocsPerRun(100, func() { ops, arena, _ = ParseOps(req, ops, arena, 32, noLimit) }); a > 32 {
		t.Errorf("ParseOps: %.0f allocations for 32 ops, want one per key", a)
	}
	if a := testing.AllocsPerRun(100, func() { rows, arena, _ = ParseRows(ans, rows, arena) }); a > 1 {
		t.Errorf("ParseRows: %.0f allocations for 32 plain rows, want 1 (the node)", a)
	}
	if a := testing.AllocsPerRun(100, func() { req, ans = AppendOps(req[:0], ops), AppendRows(ans[:0], rows) }); a > 0 {
		t.Errorf("AppendOps+AppendRows into grown buffers: %.0f allocations, want 0", a)
	}
}

func BenchmarkParseOps(b *testing.B) {
	var ops []kvcache.BatchOp
	for i := 0; i < 49; i++ {
		op := kvcache.BatchOp{Kind: kvcache.BatchGet, Key: fmt.Sprintf("k%016x", i)}
		if i%3 == 0 {
			op.Kind, op.Value = kvcache.BatchPut, make([]byte, 64<<(i%5))
		}
		ops = append(ops, op)
	}
	body := AppendOps(nil, ops)
	b.SetBytes(int64(len(body)))
	b.Run("batchwire", func(b *testing.B) {
		var arena []byte
		for i := 0; i < b.N; i++ {
			ops, arena, _ = ParseOps(body, ops, arena, 1024, noLimit)
		}
	})
	b.Run("encoding_json", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var v []jsonOp
			if err := json.Unmarshal(body, &v); err != nil {
				b.Fatal(err)
			}
		}
	})
}
