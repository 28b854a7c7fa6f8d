package classad

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Ad is a ClassAd: an attribute list mapping case-insensitive names to
// expressions. Machine ads describe compute nodes and their Xeon Phi
// devices; job ads describe submitted jobs and their resource requests.
//
// The attributes live in a small slice of slots, found by a linear scan on
// the canonical name that canonLower interns (ads carry six to ten
// attributes, so a probe is a few short string compares). A slot bound
// to an undefined, boolean, integer or real literal stores the value
// unboxed, so re-setting such an attribute — a machine ad's resource levels
// at every claim and release — overwrites the slot in place and allocates
// nothing. String and error literals and every other expression are held
// as an Expr.
type Ad struct {
	slots []slot
	// version counts mutations (Set/SetExpr). Matchmaking results depend
	// only on the two ads' contents, so a (version, version) pair
	// identifies a match result exactly; the negotiator's match cache keys
	// on it to skip re-evaluating unchanged pairs (see condor.Pool). It
	// moves on every Set, even one that rebinds an unchanged value.
	version uint64
}

// slot is one attribute binding, 64 bytes. expr is nil for an unboxed
// literal, whose kind and word hold the value (see Value.word).
type slot struct {
	canon string // interned lowercase name, the lookup key
	name  string // latest spelling, for rendering
	expr  Expr
	kind  Kind
	word  uint64
}

// word encodes an undefined, boolean, integer or real value in the 64 bits
// a literal slot holds it in; ok is false for strings and errors, which
// stay boxed.
func (v Value) word() (w uint64, ok bool) {
	switch v.kind {
	case KindUndefined:
		return 0, true
	case KindBool:
		if v.b {
			return 1, true
		}
		return 0, true
	case KindInt:
		return uint64(v.i), true
	case KindReal:
		return math.Float64bits(v.f), true
	}
	return 0, false
}

// value returns an unboxed literal slot's value.
func (s *slot) value() Value {
	switch s.kind {
	case KindBool:
		return Bool(s.word != 0)
	case KindInt:
		return Int(int64(s.word))
	case KindReal:
		return Real(math.Float64frombits(s.word))
	}
	return Undefined()
}

// adSlots is the slot capacity NewAd reserves: a job ad binds six
// attributes, and a machine ad outgrows it once.
const adSlots = 8

// NewAd returns an empty ad. The slots are a separate allocation: the
// negotiator reads every pending job ad's version on each scan, and small
// Ad headers packed together keep that walk cache-friendly.
func NewAd() *Ad { return &Ad{slots: make([]slot, 0, adSlots)} }

// Set binds name to a literal value, replacing any previous binding.
func (a *Ad) Set(name string, v Value) {
	if w, ok := v.word(); ok {
		a.bind(name, nil, v.kind, w)
		return
	}
	a.bind(name, litExpr{v}, 0, 0)
}

// SetInt and SetStr are literal-binding conveniences.
func (a *Ad) SetInt(name string, i int64) { a.bind(name, nil, KindInt, uint64(i)) }
func (a *Ad) SetStr(name, s string)       { a.Set(name, Str(s)) }

// SetExpr parses src and binds name to the resulting expression.
func (a *Ad) SetExpr(name, src string) error {
	e, err := Parse(src)
	if err != nil {
		return fmt.Errorf("classad: attribute %s: %w", name, err)
	}
	a.setExpr(name, e)
	return nil
}

// MustSetExpr is SetExpr for expressions known valid at compile time.
func (a *Ad) MustSetExpr(name, src string) {
	if err := a.SetExpr(name, src); err != nil {
		panic(err)
	}
}

// setExpr binds name to e; a literal goes through Set, which unboxes it.
func (a *Ad) setExpr(name string, e Expr) {
	if l, ok := e.(litExpr); ok {
		a.Set(name, l.v)
		return
	}
	a.bind(name, e, 0, 0)
}

// bind overwrites name's slot in place, or appends one.
func (a *Ad) bind(name string, e Expr, kind Kind, word uint64) {
	a.version++
	canon := canonLower(name)
	b := slot{canon: canon, name: name, expr: e, kind: kind, word: word}
	if s := a.find(canon); s != nil {
		*s = b
		return
	}
	a.slots = append(a.slots, b)
}

// Version reports the ad's mutation counter. Two calls returning the same
// value guarantee the ad's contents did not change in between, so any value
// derived purely from the contents (e.g. a Match result) is still valid.
func (a *Ad) Version() uint64 { return a.version }

// find returns the slot bound to a canonical (lowercase) name, or nil. The
// evaluator's attribute dereferences pre-canonicalize at parse time so the
// hot path skips the case-folding intern table.
func (a *Ad) find(canon string) *slot {
	if a == nil {
		return nil
	}
	for i := range a.slots {
		if a.slots[i].canon == canon {
			return &a.slots[i]
		}
	}
	return nil
}

func (a *Ad) lookup(name string) (Expr, bool) {
	s := a.find(canonLower(name))
	switch {
	case s == nil:
		return nil, false
	case s.expr == nil:
		return litExpr{s.value()}, true
	}
	return s.expr, true
}

// Eval evaluates the named attribute in this ad's own scope (no target).
// Missing attributes evaluate to undefined.
func (a *Ad) Eval(name string) Value {
	return a.EvalWithTarget(name, nil)
}

// EvalWithTarget evaluates the named attribute with the given target ad
// available for TARGET. references. Missing attributes are undefined.
func (a *Ad) EvalWithTarget(name string, target *Ad) Value {
	s := a.find(canonLower(name))
	switch {
	case s == nil:
		return Undefined()
	case s.expr == nil:
		return s.value()
	}
	return s.expr.Eval(Env{My: a, Target: target})
}

// Names returns the bound attribute names in sorted order.
func (a *Ad) Names() []string {
	names := make([]string, len(a.slots))
	for i := range a.slots {
		names[i] = a.slots[i].name
	}
	sort.Strings(names)
	return names
}

// String renders the ad in bracketed ClassAd syntax, attributes sorted by
// name for stable output.
func (a *Ad) String() string {
	var sb strings.Builder
	sb.WriteString("[ ")
	for i, name := range a.Names() {
		if i > 0 {
			sb.WriteString("; ")
		}
		expr, _ := a.lookup(name)
		fmt.Fprintf(&sb, "%s = %s", name, expr.String())
	}
	sb.WriteString(" ]")
	return sb.String()
}

// RequirementsAttr is the attribute consulted by matchmaking.
const RequirementsAttr = "Requirements"

// canonRequirements is RequirementsAttr in canonical form, precomputed for
// the matchmaking hot path.
const canonRequirements = "requirements"

// Match performs symmetric Condor matchmaking between two ads: each side's
// Requirements expression must evaluate to true with the other ad as TARGET.
// A missing Requirements attribute accepts anything (Condor inserts `true`
// when a submit file omits it). Undefined or error results reject the match.
func Match(a, b *Ad) bool {
	return requirementsHold(a, b) && requirementsHold(b, a)
}

func requirementsHold(my, target *Ad) bool {
	s := my.find(canonRequirements)
	if s == nil {
		return true
	}
	var v Value
	if s.expr == nil {
		v = s.value()
	} else {
		v = s.expr.Eval(Env{My: my, Target: target})
	}
	b, isBool := v.BoolValue()
	return isBool && b
}
