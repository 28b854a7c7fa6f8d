package obs

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"slices"
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
// names and values, one field of every kind: every line is valid JSON and
// decodes back to the event's keys and values in emission order (strings
// with invalid UTF-8 come back with each bad byte replaced by U+FFFD, as
// encoding/json decodes them); every value but the float encodes to
// json.Marshal's bytes, and the float to a number that decodes to the same
// bits; every field reads back through its own accessor and through no
// other; and a retained trace keeps its own copy of the id list. raw holds
// the id list, eight little-endian bytes per id.
// testdata/fuzz/FuzzEventAppendJSON holds the edge seeds: non-finite
// floats, a field key that repeats a reserved key, HTML bytes.
func FuzzEventAppendJSON(f *testing.F) {
	f.Add("condor", "match", "machine", "slot1@node0", int64(7), 0.75, true, []byte("\x01\x00\x00\x00\x00\x00\x00\x00"))
	f.Fuzz(func(t *testing.T, layer, kind, key, sval string, ival int64, fval float64, bval bool, raw []byte) {
		ids := make([]int, 0, len(raw)/8)
		for i := 0; i+8 <= len(raw); i += 8 {
			ids = append(ids, int(int64(binary.LittleEndian.Uint64(raw[i:]))))
		}
		fields := []Field{Str(key, sval), Int("n", ival), Float("x", fval), Bool("b", bval), IDs("ids", ids)}
		e := Event{At: units.Tick(ival), Layer: layer, Kind: kind, Fields: fields}
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
			valid(key), valid(sval), "n", num(ival), "x", fx, "b", bval,
			"ids", json.Delim('[')}
		for _, id := range ids {
			want = append(want, num(int64(id)))
		}
		want = append(want, json.Delim(']'), json.Delim('}'))
		if len(toks) != len(want) {
			t.Fatalf("decoded %d tokens, want %d: %s", len(toks), len(want), line)
		}
		for i := range want {
			if toks[i] != want[i] {
				t.Fatalf("token %d = %#v, want %#v: %s", i, toks[i], want[i], line)
			}
		}

		for i, v := range []any{sval, ival, nil, bval, ids} {
			got := appendJSONValue(nil, fields[i])
			if v == nil { // the float: the same bits back through encoding/json
				if fx == nil {
					continue
				}
				var back float64
				if err := json.Unmarshal(got, &back); err != nil || math.Float64bits(back) != math.Float64bits(fval) {
					t.Fatalf("float %v encoded as %s, decodes to %v (%v)", fval, got, back, err)
				}
				continue
			}
			if m, _ := json.Marshal(v); !bytes.Equal(got, m) {
				t.Fatalf("field %q = %s, json.Marshal = %s", fields[i].Key, got, m)
			}
		}

		checkAccessors(t, fields[0], kindStr)
		checkAccessors(t, fields[1], kindInt)
		checkAccessors(t, fields[2], kindFloat)
		checkAccessors(t, fields[3], kindBool)
		checkAccessors(t, fields[4], kindIDs)
		if v, _ := fields[0].strVal(); v != sval {
			t.Fatalf("strVal = %q, want %q", v, sval)
		}
		if v, _ := fields[1].intVal(); v != ival {
			t.Fatalf("intVal = %d, want %d", v, ival)
		}
		if v, _ := fields[2].floatVal(); math.Float64bits(v) != math.Float64bits(fval) {
			t.Fatalf("floatVal = %v, want %v", v, fval)
		}
		if v, _ := fields[3].boolVal(); v != bval {
			t.Fatalf("boolVal = %v, want %v", v, bval)
		}
		if v, _ := fields[4].idsVal(); !slices.Equal(v, ids) {
			t.Fatalf("idsVal = %v, want %v", v, ids)
		}

		tr := NewTrace()
		tr.Emit(e.At, layer, kind, fields...)
		for i := range ids {
			ids[i] = ^ids[i]
		}
		if got := tr.Events()[0].AppendJSON(nil); !bytes.Equal(got, line) {
			t.Fatalf("retained event = %s, want %s (id list not copied?)", got, line)
		}
	})
}

// checkAccessors requires f to read back through the accessor of kind k
// and through no other.
func checkAccessors(t *testing.T, f Field, k fieldKind) {
	t.Helper()
	_, isInt := f.intVal()
	_, isFloat := f.floatVal()
	_, isBool := f.boolVal()
	_, isStr := f.strVal()
	_, isIDs := f.idsVal()
	got := []bool{kindInt: isInt, kindFloat: isFloat, kindBool: isBool, kindStr: isStr, kindIDs: isIDs}
	for kk, ok := range got {
		if ok != (fieldKind(kk) == k) {
			t.Fatalf("field %q of kind %d: accessor of kind %d reports ok=%v", f.Key, k, kk, ok)
		}
	}
}

// allocTestEvent carries one field of every kind, and every integer type
// the stack emits.
var allocTestEvent = Event{At: 1500, Layer: LayerCore, Kind: "knapsack", Fields: []Field{
	Str("machine", "slot1@node0"), Int("job", 7), Int("deadline", units.Tick(90000)),
	Int("mem_mb", units.MB(512)), Int("threads", units.Threads(60)),
	IDs("picked_jobs", []int{1, 2, 3}), Bool("fastpath", true), Float("speed", 0.75),
	Str("note", `escaped "<&>"`),
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
