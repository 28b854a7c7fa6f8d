// Package util sits outside internal/, where deadapi does not look.
package util

// Unused has no caller, but only internal/ API is checked.
func Unused() {}
