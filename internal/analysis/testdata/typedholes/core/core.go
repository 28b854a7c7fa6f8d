package core

import (
	srt "sort"
	. "time"
)

type dir struct {
	slots map[string]int
}

func (d *dir) table() map[string]int { return d.slots }

// Names ranges over a map that a method returns: the operand's type is
// the method's result type, not a declared variable or field.
func Names(d *dir) []string {
	var out []string
	for k := range d.table() {
		out = append(out, k)
	}
	return out
}

// Shadowed declares x as a map in one closure and as a slice in its
// sibling; only the map range is order-sensitive.
func Shadowed(emit func(string)) {
	first := func() {
		x := map[string]int{"a": 1, "b": 2}
		for k := range x {
			emit(k)
		}
	}
	second := func() {
		x := []string{"a", "b"}
		for _, v := range x {
			emit(v)
		}
	}
	first()
	second()
}

// Started reads the wall clock through a dot import.
func Started() Time { return Now() }

type job struct {
	id    int
	value int
}

// Rank sorts on a single key through a renamed sort import.
func Rank(jobs []job) {
	srt.Slice(jobs, func(i, j int) bool { return jobs[i].value < jobs[j].value })
}
