package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"strconv"
	"strings"
	"testing"

	"phishare/internal/units"
)

// jsonStringCases are the escaping edge cases encoding/json handles
// specially: FuzzAppendJSONString's seeds, which plain go test replays.
var jsonStringCases = []string{
	"",
	"negotiation_start",
	"slot1@node3",
	`quote " and backslash \`,
	"\b\f\n\r\t",
	"\x00\x01\x1f\x7f",
	"<script>&amp;</script>",
	"café 世界 \U0001F600",
	"\u2028 line \u2029 paragraph",
	"bad \xff utf8 \xc3",
	"\xed\xa0\x80", // a UTF-16 surrogate half, invalid in UTF-8
	"\ufffd already replaced",
}

// TestAppendJSONStringMatchesMarshal checks every single byte, alone and
// between runs of safe bytes.
func TestAppendJSONStringMatchesMarshal(t *testing.T) {
	for b := 0; b < 256; b++ {
		checkJSONString(t, string([]byte{byte(b)}))
		checkJSONString(t, "ab"+string([]byte{byte(b)})+"cd")
	}
}

// FuzzAppendJSONString holds the string encoder to json.Marshal byte for
// byte.
func FuzzAppendJSONString(f *testing.F) {
	for _, s := range jsonStringCases {
		f.Add(s)
	}
	f.Fuzz(checkJSONString)
}

func checkJSONString(t *testing.T, s string) {
	want, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	prefix := []byte("x:")
	got := appendJSONString(prefix, s)
	if !bytes.Equal(got[len(prefix):], want) || string(got[:len(prefix)]) != "x:" {
		t.Fatalf("appendJSONString(%q) = %s, json.Marshal = %s", s, got[len(prefix):], want)
	}
}

// FuzzEventAppendJSON checks the event encoder's contract on arbitrary
// names and values: every line is valid JSON, and decoding it gives back
// the event's keys and values in emission order (strings with invalid
// UTF-8 come back with each bad byte replaced by U+FFFD, as encoding/json
// decodes them). testdata/fuzz/FuzzEventAppendJSON holds the edge seeds:
// non-finite floats, a field key that repeats a reserved key, HTML bytes.
func FuzzEventAppendJSON(f *testing.F) {
	f.Add("condor", "match", "machine", "slot1@node0", int64(7), 0.75)
	f.Fuzz(func(t *testing.T, layer, kind, key, sval string, ival int64, fval float64) {
		e := Event{At: units.Tick(ival), Layer: layer, Kind: kind,
			Fields: []Field{F(key, sval), F("n", ival), F("x", fval)}}
		line := e.AppendJSON(nil)
		if !json.Valid(line) {
			t.Fatalf("invalid JSON: %s", line)
		}
		dec := json.NewDecoder(bytes.NewReader(line))
		dec.UseNumber()
		var toks []any
		for {
			tok, err := dec.Token()
			if err != nil {
				break
			}
			toks = append(toks, tok)
		}
		valid := func(s string) string { return string([]rune(s)) }
		num := func(n int64) json.Number { return json.Number(strconv.FormatInt(n, 10)) }
		var fx any // NaN and ±Inf encode as null
		if !math.IsNaN(fval) && !math.IsInf(fval, 0) {
			fx = json.Number(strconv.FormatFloat(fval, 'g', -1, 64))
		}
		want := []any{json.Delim('{'),
			"time_ms", num(ival), "layer", valid(layer), "kind", valid(kind),
			valid(key), valid(sval), "n", num(ival), "x", fx,
			json.Delim('}')}
		if len(toks) != len(want) {
			t.Fatalf("decoded %d tokens, want %d: %s", len(toks), len(want), line)
		}
		for i := range want {
			if toks[i] != want[i] {
				t.Fatalf("token %d = %#v, want %#v: %s", i, toks[i], want[i], line)
			}
		}
	})
}

// allocTestEvent carries one field of every type the stack emits.
var allocTestEvent = Event{At: 1500, Layer: LayerCore, Kind: "knapsack", Fields: []Field{
	F("machine", "slot1@node0"), F("job", 7), F("deadline", units.Tick(90000)),
	F("mem_mb", units.MB(512)), F("threads", units.Threads(60)),
	F("picked_jobs", []int{1, 2, 3}), F("fastpath", true), F("speed", 0.75),
	F("note", `escaped "<&>"`),
}}

func TestEventAppendJSONAllocatesNothing(t *testing.T) {
	buf := allocTestEvent.AppendJSON(nil)
	if allocs := testing.AllocsPerRun(100, func() {
		buf = allocTestEvent.AppendJSON(buf[:0])
	}); allocs != 0 {
		t.Fatalf("Event.AppendJSON into a warmed buffer: %v allocs/op, want 0", allocs)
	}
	if !json.Valid(buf) || !strings.Contains(string(buf), `"note":"escaped \"\u003c\u0026\u003e\""`) {
		t.Fatalf("unexpected encoding: %s", buf)
	}
}

var benchJSONSink []byte

func BenchmarkEventAppendJSON(b *testing.B) {
	buf := allocTestEvent.AppendJSON(nil)
	b.ReportAllocs()
	b.SetBytes(int64(len(buf)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = allocTestEvent.AppendJSON(buf[:0])
	}
	benchJSONSink = buf
}
