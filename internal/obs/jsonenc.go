package obs

import (
	"math"
	"strconv"
	"unicode/utf8"
)

// The JSON encoder shared by every obs exporter (Trace.WriteJSONL,
// StreamSink, WriteChromeTrace). It appends straight into the caller's
// buffer without reflection or a temporary slice per string. Strings,
// integers, bools and id lists come out as the exact bytes encoding/json
// would write, HTML-safe escaping included (FuzzAppendJSONString holds the
// string encoder to json.Marshal byte for byte); floats take strconv's
// shortest 'g' form, which decodes to the same value.

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

// appendJSONValue appends one field's value.
func appendJSONValue(buf []byte, f Field) []byte {
	switch f.kind() {
	case kindInt:
		return strconv.AppendInt(buf, int64(f.word), 10)
	case kindFloat:
		x, _ := f.floatVal()
		// JSON has no NaN or infinity; null keeps the line parseable.
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return append(buf, "null"...)
		}
		return strconv.AppendFloat(buf, x, 'g', -1, 64)
	case kindBool:
		return strconv.AppendBool(buf, f.word != 0)
	case kindIDs:
		ids, _ := f.idsVal()
		buf = append(buf, '[')
		for i, n := range ids {
			if i > 0 {
				buf = append(buf, ',')
			}
			buf = strconv.AppendInt(buf, int64(n), 10)
		}
		return append(buf, ']')
	}
	s, _ := f.strVal()
	return appendJSONString(buf, s)
}
