package classad

import (
	"fmt"
	"sort"
	"strings"
)

// Ad is a ClassAd: an attribute list mapping case-insensitive names to
// expressions (literal values are stored as constant expressions). Machine
// ads describe compute nodes and their Xeon Phi devices; job ads describe
// submitted jobs and their resource requests.
type Ad struct {
	attrs map[string]attr // key: lowercase name
	// version counts mutations (Set/SetExpr/Delete). Matchmaking results
	// depend only on the two ads' contents, so a (version, version) pair
	// identifies a match result exactly; the negotiator's match cache keys
	// on it to skip re-evaluating unchanged pairs (see condor.Pool).
	version uint64
}

type attr struct {
	name string // original spelling, for rendering
	expr Expr
}

// NewAd returns an empty ad.
func NewAd() *Ad { return &Ad{attrs: map[string]attr{}} }

// Set binds name to a literal value, replacing any previous binding.
func (a *Ad) Set(name string, v Value) { a.setExpr(name, litExpr{v}) }

// SetInt and SetStr are literal-binding conveniences.
func (a *Ad) SetInt(name string, i int64) { a.Set(name, Int(i)) }
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

func (a *Ad) setExpr(name string, e Expr) {
	if a.attrs == nil {
		a.attrs = map[string]attr{}
	}
	a.version++
	a.attrs[canonLower(name)] = attr{name: name, expr: e}
}

// Version reports the ad's mutation counter. Two calls returning the same
// value guarantee the ad's contents did not change in between, so any value
// derived purely from the contents (e.g. a Match result) is still valid.
func (a *Ad) Version() uint64 { return a.version }

func (a *Ad) lookup(name string) (Expr, bool) {
	return a.lookupCanon(canonLower(name))
}

// lookupCanon is lookup for a key already in canonical (lowercase) form —
// the evaluator's attribute dereferences pre-canonicalize at parse time so
// the hot path skips the case-folding intern table.
func (a *Ad) lookupCanon(canon string) (Expr, bool) {
	if a == nil || a.attrs == nil {
		return nil, false
	}
	at, ok := a.attrs[canon]
	if !ok {
		return nil, false
	}
	return at.expr, true
}

// Eval evaluates the named attribute in this ad's own scope (no target).
// Missing attributes evaluate to undefined.
func (a *Ad) Eval(name string) Value {
	return a.EvalWithTarget(name, nil)
}

// EvalWithTarget evaluates the named attribute with the given target ad
// available for TARGET. references. Missing attributes are undefined.
func (a *Ad) EvalWithTarget(name string, target *Ad) Value {
	expr, ok := a.lookup(name)
	if !ok {
		return Undefined()
	}
	return expr.Eval(Env{My: a, Target: target})
}

// Names returns the bound attribute names in sorted order.
func (a *Ad) Names() []string {
	names := make([]string, 0, len(a.attrs))
	for _, at := range a.attrs {
		names = append(names, at.name)
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
	expr, ok := my.lookupCanon(canonRequirements)
	if !ok {
		return true
	}
	v := expr.Eval(Env{My: my, Target: target})
	b, isBool := v.BoolValue()
	return isBool && b
}
