// Package lib is the deadapi fixture: each exported identifier is either
// referenced from non-test code somewhere in the fixture module or flagged.
package lib

import "fmt"

// Used is read by cmd/app.
const Used = 2

// Limit has no reader: flagged.
const Limit = 3

// Spare has no reader: flagged.
var Spare int

// Live is called from cmd/app.
func Live() int { return helper() }

func helper() int { return Used - 1 }

// TestOnly is called only from lib_test.go, which no load sees: flagged.
func TestOnly() int { return 2 }

// Demo is called only from the examples/ main package: live.
func Demo() string { return "demo" }

// Countdown only calls itself: flagged.
func Countdown(n int) int {
	if n == 0 {
		return 0
	}
	return Countdown(n - 1)
}

// Oracle is read only by lib_test.go, as a reference.
//
//philint:ignore deadapi reference oracle: lib_test.go holds Live to it
func Oracle() int { return 1 }

// Celsius is a temperature; cmd/app prints one.
type Celsius float64

// String satisfies fmt.Stringer, so fmt may call it; nothing names it: live.
func (c Celsius) String() string { return fmt.Sprintf("%.1fC", float64(c)) }

// Scale matches no interface method and has no caller: flagged.
func (c Celsius) Scale(f float64) Celsius { return c * Celsius(f) }

// Shape is implemented by square; cmd/app calls Area through it.
type Shape interface{ Area() int }

type square struct{ side int }

// Area is called only through Shape: live.
func (s square) Area() int { return s.side * s.side }

// NewSquare returns a square as a Shape.
func NewSquare(side int) Shape { return square{side} }

// Box holds one value; cmd/app calls Get on a Box[int].
type Box[T any] struct{ v T }

// Get is called only on an instantiation of Box: live.
func (b Box[T]) Get() T { return b.v }

// Point is built by cmd/app. Y is never read; fields are out of scope.
type Point struct{ X, Y int }

// Orphan is named only inside its own declaration and methods: flagged,
// and so is Next.
type Orphan struct{ next *Orphan }

// Next returns the successor.
func (o *Orphan) Next() *Orphan { return o.next }
