package classad

import (
	"testing"
	"unsafe"
)

// TestLiteralSetDoesNotAllocate pins the slot layout's point: rebinding an
// existing attribute to an undefined, boolean, integer or real literal —
// directly or through a parsed keyword — overwrites its slot in place.
func TestLiteralSetDoesNotAllocate(t *testing.T) {
	ad := NewAd()
	ad.SetInt("PhiFreeMemory", 8000)
	ad.Set("Load", Real(0.5))
	ad.Set("Busy", Bool(false))
	ad.MustSetExpr("Requirements", "true")
	for _, tc := range []struct {
		name string
		set  func()
	}{
		{"SetInt", func() { ad.SetInt("PhiFreeMemory", 7000) }},
		{"SetInt/other spelling", func() { ad.SetInt("phifreememory", 6000) }},
		{"Set/Real", func() { ad.Set("Load", Real(0.75)) }},
		{"Set/Bool", func() { ad.Set("Busy", Bool(true)) }},
		{"Set/Undefined", func() { ad.Set("Busy", Undefined()) }},
		{"MustSetExpr/true", func() { ad.MustSetExpr("Requirements", "true") }},
	} {
		if n := testing.AllocsPerRun(100, tc.set); n != 0 {
			t.Errorf("%s on a bound attribute allocates %.1f times, want 0", tc.name, n)
		}
	}
}

// TestSetBumpsVersionOnUnchangedValue records a decision: every Set moves
// Version, even one that rebinds the value already there. The negotiator's
// match cache keys on versions, so skipping the bump would leave outcomes
// identical but lower the condor_match_cache_* counters in -metrics
// exports.
func TestSetBumpsVersionOnUnchangedValue(t *testing.T) {
	ad := NewAd()
	ad.SetInt("X", 3)
	ad.SetStr("Name", "a")
	for _, set := range []func(){
		func() { ad.SetInt("X", 3) },
		func() { ad.Set("x", Int(3)) },
		func() { ad.SetStr("Name", "a") },
		func() { ad.MustSetExpr("X", "3") },
	} {
		before := ad.Version()
		set()
		if ad.Version() == before {
			t.Errorf("rebinding an unchanged value left Version at %d", before)
		}
	}
}

// TestParseKeywordsDoNotAllocate: the keyword literals are shared, pre-boxed
// Exprs, so the Requirements every MCC and MCCK job installs costs no parse
// allocation.
func TestParseKeywordsDoNotAllocate(t *testing.T) {
	for _, src := range []string{"true", "false", "undefined", "error", "TRUE"} {
		if n := testing.AllocsPerRun(100, func() { _, _ = Parse(src) }); n != 0 {
			t.Errorf("Parse(%q) allocates %.1f times, want 0", src, n)
		}
	}
}

// TestSlotFitsOneCacheLine guards peak heap: a 96-byte slot that embedded
// a whole Value raised deep-queue's peak heap by 16%.
func TestSlotFitsOneCacheLine(t *testing.T) {
	if n := unsafe.Sizeof(slot{}); n > 64 {
		t.Errorf("slot is %d bytes, want at most 64", n)
	}
}

// TestRebindKeepsLatestSpelling: names are case-insensitive, and a rebind
// under another spelling renames the attribute, as the map-backed ad did.
func TestRebindKeepsLatestSpelling(t *testing.T) {
	ad := NewAd()
	ad.MustSetExpr("Pin", `"a"`)
	ad.SetInt("PIN", 4)
	if got := ad.Names(); len(got) != 1 || got[0] != "PIN" {
		t.Errorf("Names() = %q, want [PIN]", got)
	}
	if got, want := ad.String(), "[ PIN = 4 ]"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}
