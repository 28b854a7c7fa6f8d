package obs

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"unicode/utf8"

	"phishare/internal/units"
)

// The JSON encoder shared by every obs exporter (Trace.WriteJSONL,
// StreamSink, WriteChromeTrace). It appends straight into the caller's
// buffer and produces the exact bytes encoding/json would — HTML-safe
// escaping included — without boxing, reflection or a temporary slice per
// string. FuzzAppendJSONString holds it to json.Marshal byte for byte.

// jsonSafe marks the ASCII bytes encoding/json copies through unescaped:
// printable ASCII and DEL, minus the quote, the backslash and the
// HTML-sensitive <, > and &.
var jsonSafe = func() (t [utf8.RuneSelf]bool) {
	for b := ' '; b < utf8.RuneSelf; b++ {
		t[b] = true
	}
	for _, b := range `"\<>&` {
		t[b] = false
	}
	return t
}()

const hexDigits = "0123456789abcdef"

// appendJSONString appends s as a JSON string literal. Runs of safe bytes
// are copied in one append; invalid UTF-8 becomes \ufffd, and U+2028/U+2029
// are escaped, as encoding/json does.
func appendJSONString(buf []byte, s string) []byte {
	buf = append(buf, '"')
	start := 0
	for i := 0; i < len(s); {
		b := s[i]
		if b < utf8.RuneSelf {
			if jsonSafe[b] {
				i++
				continue
			}
			buf = append(buf, s[start:i]...)
			switch b {
			case '"', '\\':
				buf = append(buf, '\\', b)
			case '\b':
				buf = append(buf, '\\', 'b')
			case '\f':
				buf = append(buf, '\\', 'f')
			case '\n':
				buf = append(buf, '\\', 'n')
			case '\r':
				buf = append(buf, '\\', 'r')
			case '\t':
				buf = append(buf, '\\', 't')
			default: // other control bytes and <, >, &
				buf = append(buf, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xf])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			buf = append(buf, s[start:i]...)
			buf = append(buf, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			buf = append(buf, s[start:i]...)
			buf = append(buf, '\\', 'u', '2', '0', '2', hexDigits[r&0xf])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	buf = append(buf, s[start:]...)
	return append(buf, '"')
}

// appendJSONValue appends one field value. Every type the stack emits has a
// direct case in appendJSONDirect (TestEmittedFieldsEncodeDirectly checks
// this over instrumented runs); the reflection fallback exists only to keep
// the exporter total.
func appendJSONValue(buf []byte, v any) []byte {
	if out, ok := appendJSONDirect(buf, v); ok {
		return out
	}
	b, err := json.Marshal(v)
	if err != nil {
		return appendJSONString(buf, fmt.Sprint(v))
	}
	return append(buf, b...)
}

// appendJSONDirect encodes the value types the stack emits without
// reflection; ok is false (and buf untouched) for any other type.
func appendJSONDirect(buf []byte, v any) (out []byte, ok bool) {
	switch x := v.(type) {
	case nil:
		return append(buf, "null"...), true
	case bool:
		return strconv.AppendBool(buf, x), true
	case int:
		return strconv.AppendInt(buf, int64(x), 10), true
	case int64:
		return strconv.AppendInt(buf, x, 10), true
	case uint64:
		return strconv.AppendUint(buf, x, 10), true
	case float64:
		// JSON has no NaN or infinity; null keeps the line parseable.
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return append(buf, "null"...), true
		}
		return strconv.AppendFloat(buf, x, 'g', -1, 64), true
	case string:
		return appendJSONString(buf, x), true
	case units.Tick:
		return strconv.AppendInt(buf, int64(x), 10), true
	case units.MB:
		return strconv.AppendInt(buf, int64(x), 10), true
	case units.Threads:
		return strconv.AppendInt(buf, int64(x), 10), true
	case []int:
		buf = append(buf, '[')
		for i, n := range x {
			if i > 0 {
				buf = append(buf, ',')
			}
			buf = strconv.AppendInt(buf, int64(n), 10)
		}
		return append(buf, ']'), true
	}
	return buf, false
}
