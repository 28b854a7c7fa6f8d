package obs

import (
	"math"
	"unsafe"
)

// Field is one key/value attribute of a trace event, built by Int, Bool, Str
// or IDs. Fields keep their emission order (they are not sorted),
// so an event serializes exactly as the emitting site wrote it.
//
// A Field holds its value unboxed in 32 bytes, so building one allocates
// nothing:
//   - a string keeps its data pointer in ref and its length in word;
//   - an id list keeps its element pointer in ref and its length, tagged
//     with idsTag, in word;
//   - an integer, float or bool keeps its bits in word, and ref points at
//     the kind's sentinel in scalarKinds.
//
// No emitter writes a float today, so its constructor (Float) lives with
// the tests; the encoder still writes the kind, NaN and ±Inf as null.
//
// This file is the package's only user of unsafe.
type Field struct {
	Key  string
	ref  unsafe.Pointer
	word uint64
}

// fieldKind is a Field's value type.
type fieldKind uint8

const (
	kindInt fieldKind = iota
	kindFloat
	kindBool
	kindStr
	kindIDs
)

// scalarKinds are the sentinels a scalar field's ref points at: one byte
// per scalar kind, so each has its own address.
var scalarKinds [kindBool + 1]byte

// idsTag marks an id list's length in word; no slice is that long.
const idsTag = 1 << 63

func scalar(key string, k fieldKind, word uint64) Field {
	return Field{Key: key, ref: unsafe.Pointer(&scalarKinds[k]), word: word}
}

// Int builds an integer field. It takes every integer type the stack emits
// (int, int64, units.Tick, units.MB, units.Threads); all encode as JSON
// integers.
func Int[T ~int | ~int64](key string, v T) Field { return scalar(key, kindInt, uint64(v)) }

// Bool builds a boolean field.
func Bool(key string, v bool) Field {
	var w uint64
	if v {
		w = 1
	}
	return scalar(key, kindBool, w)
}

// Str builds a string field.
func Str(key, v string) Field {
	if len(v) == 0 {
		return Field{Key: key}
	}
	return Field{Key: key, ref: unsafe.Pointer(unsafe.StringData(v)), word: uint64(len(v))}
}

// IDs builds an id-list field. The trace copies the list when it retains
// the event, so the caller may reuse ids once Emit returns.
func IDs(key string, ids []int) Field {
	if len(ids) == 0 {
		return Field{Key: key, word: idsTag}
	}
	return Field{Key: key, ref: unsafe.Pointer(unsafe.SliceData(ids)), word: idsTag | uint64(len(ids))}
}

// kind reports the field's value type.
func (f Field) kind() fieldKind {
	switch f.ref {
	case unsafe.Pointer(&scalarKinds[kindInt]):
		return kindInt
	case unsafe.Pointer(&scalarKinds[kindFloat]):
		return kindFloat
	case unsafe.Pointer(&scalarKinds[kindBool]):
		return kindBool
	}
	if f.word&idsTag != 0 {
		return kindIDs
	}
	return kindStr
}

// The accessors return a field's value and whether it has that kind.

func (f Field) intVal() (int64, bool) { return int64(f.word), f.kind() == kindInt }

func (f Field) floatVal() (float64, bool) {
	return math.Float64frombits(f.word), f.kind() == kindFloat
}

func (f Field) boolVal() (bool, bool) { return f.word != 0, f.kind() == kindBool }

func (f Field) strVal() (string, bool) {
	if f.kind() != kindStr {
		return "", false
	}
	return unsafe.String((*byte)(f.ref), int(f.word)), true
}

func (f Field) idsVal() ([]int, bool) {
	if f.kind() != kindIDs {
		return nil, false
	}
	return unsafe.Slice((*int)(f.ref), int(f.word&^idsTag)), true
}
