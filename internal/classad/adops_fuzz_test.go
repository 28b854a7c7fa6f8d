package classad

import (
	"bytes"
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"
)

// mapAd is the map-backed ad Ad replaced: canonical name to the latest
// spelling and an Expr, every literal boxed as a constant expression.
// FuzzAdOps holds Ad to it.
type mapAd struct {
	attrs   map[string]mapAttr
	version uint64
}

type mapAttr struct {
	name string
	expr Expr
}

func (m *mapAd) set(name string, e Expr) {
	m.version++
	m.attrs[strings.ToLower(name)] = mapAttr{name: name, expr: e}
}

func (m *mapAd) names() []string {
	names := make([]string, 0, len(m.attrs))
	for _, at := range m.attrs { // order-insensitive collect; sorted below
		names = append(names, at.name)
	}
	sort.Strings(names)
	return names
}

func (m *mapAd) String() string {
	var sb strings.Builder
	sb.WriteString("[ ")
	for i, name := range m.names() {
		if i > 0 {
			sb.WriteString("; ")
		}
		fmt.Fprintf(&sb, "%s = %s", name, m.attrs[strings.ToLower(name)].expr.String())
	}
	sb.WriteString(" ]")
	return sb.String()
}

// boxed materialises the model as an Ad whose every slot holds its Expr,
// in reverse name order, so the evaluator, matchmaking, signatures and
// folds run on the map's bindings through none of the unboxed-literal
// paths and none of the in-place rebinds.
func (m *mapAd) boxed() *Ad {
	keys := make([]string, 0, len(m.attrs))
	for k := range m.attrs { // order-insensitive collect; sorted below
		keys = append(keys, k)
	}
	sort.Sort(sort.Reverse(sort.StringSlice(keys)))
	a := &Ad{version: m.version}
	for _, k := range keys {
		at := m.attrs[k]
		a.slots = append(a.slots, slot{canon: k, name: at.name, expr: at.expr})
	}
	return a
}

// The FuzzAdOps vocabulary: mixed-case spellings of a few attributes, the
// expressions SetExpr binds, and the names each step evaluates.
var (
	adOpNames = []string{"A", "a", "X", "x", "Pin", "PIN", "pin", "Requirements", "REQUIREMENTS", "Name", "B"}
	adOpExprs = []string{
		"7", "-2", "2.5", "true", "false", "undefined", "error", `"str"`,
		"A + 1", "MY.X * 2", "TARGET.X > 2", "Pin", "MY.Pin && MY.A > 0", "A",
		"x == 3", `TARGET.Name == "m"`, "isUndefined(MY.B)",
		"ifThenElse(MY.A > 0, TARGET.X, 1.5)", "Requirements", "REQUIREMENTS || true",
	}
	adOpStrs  = []string{"", "m", "str", "Slot1@Node0"}
	adOpEvals = []string{"a", "x", "pin", "requirements", "name", "b", "Missing"}
	adOpRoots = []string{"Requirements", "Pin", "X"}
)

// adOpCounterpart is the fixed ad each step matches against: it reads the
// fuzzed ad's attributes through TARGET.
func adOpCounterpart() *Ad {
	cp := NewAd()
	cp.SetStr("Name", "m")
	cp.SetInt("X", 3)
	cp.MustSetExpr("Pin", "TARGET.A")
	cp.MustSetExpr("Requirements", "TARGET.X >= 2 || isUndefined(TARGET.A) || TARGET.Pin")
	return cp
}

// FuzzAdOps is the differential check of Ad against the map-backed ad it
// replaced. ops decodes, three bytes per operation, into a sequence of
// SetInt, SetStr, Set (real, bool, undefined, error) and SetExpr calls over
// a small mixed-case vocabulary; SetExpr binds a fixed expression or src.
// After each operation Version, Names and String must equal the model's,
// and Eval, EvalWithTarget, Match against a fixed counterpart (both ways),
// AppendSignature bytes, FoldRequirements, FoldConstant and TargetRefs must
// equal those of the model's bindings materialised as boxed expressions.
func FuzzAdOps(f *testing.F) {
	f.Add([]byte{0, 0, 5, 0, 1, 9, 6, 7, 12}, `MY.A > 4`)
	f.Fuzz(func(t *testing.T, ops []byte, src string) {
		if len(ops) > 300 || len(src) > 256 {
			return
		}
		ad, model := NewAd(), &mapAd{attrs: map[string]mapAttr{}}
		cp := adOpCounterpart()
		sigA, sigM := NewSigner(), NewSigner()
		for i := 0; i+2 < len(ops); i += 3 {
			name := adOpNames[int(ops[i+1])%len(adOpNames)]
			v := int8(ops[i+2])
			var step string
			switch ops[i] % 8 {
			case 0:
				ad.SetInt(name, int64(v))
				model.set(name, litExpr{Int(int64(v))})
				step = fmt.Sprintf("SetInt(%q, %d)", name, v)
			case 1:
				s := adOpStrs[int(uint8(v))%len(adOpStrs)]
				ad.SetStr(name, s)
				model.set(name, litExpr{Str(s)})
				step = fmt.Sprintf("SetStr(%q, %q)", name, s)
			case 2:
				val := Real(float64(v) / 4)
				ad.Set(name, val)
				model.set(name, litExpr{val})
				step = fmt.Sprintf("Set(%q, %v)", name, val)
			case 3:
				val := Bool(v%2 != 0)
				ad.Set(name, val)
				model.set(name, litExpr{val})
				step = fmt.Sprintf("Set(%q, %v)", name, val)
			case 4:
				ad.Set(name, Undefined())
				model.set(name, litExpr{Undefined()})
				step = fmt.Sprintf("Set(%q, undefined)", name)
			case 5:
				val := ErrorValue(adOpStrs[int(uint8(v))%len(adOpStrs)])
				ad.Set(name, val)
				model.set(name, litExpr{val})
				step = fmt.Sprintf("Set(%q, %v)", name, val)
			default:
				e := adOpExprs[int(uint8(v))%len(adOpExprs)]
				if ops[i]%8 == 7 {
					e = src
				}
				parsed, err := Parse(e)
				if setErr := ad.SetExpr(name, e); (err == nil) != (setErr == nil) {
					t.Fatalf("SetExpr(%q, %q) returned %v, Parse %v", name, e, setErr, err)
				}
				if err != nil {
					continue
				}
				model.set(name, parsed)
				step = fmt.Sprintf("SetExpr(%q, %q)", name, e)
			}
			if derefBound(ad, cp) >= maxDerefs {
				return
			}
			checkAdOp(t, step, ad, model, cp, sigA, sigM)
		}
	})
}

// maxDerefs bounds the attribute dereferences one evaluation in FuzzAdOps
// may make. The tree-walking evaluator re-walks a reference cycle at every
// depth up to maxEvalDepth, so a cycle that branches — A = Requirements
// and Pin = Requirements against a counterpart whose Requirements reads
// TARGET.A and TARGET.Pin — takes about 2^64 steps; a sequence ends before
// checking such a binding.
const maxDerefs = 1 << 12

// derefBound is an upper bound, capped at maxDerefs, on the dereferences
// evaluating any attribute of ad or cp can make: an unscoped reference
// counts the walks through both ads.
func derefBound(ad, cp *Ad) int {
	ads := [2]*Ad{ad, cp}
	type key struct {
		side, depth int
		canon       string
	}
	memo := map[key]int{}
	var cost func(side int, canon string, depth int) int
	cost = func(side int, canon string, depth int) int {
		if depth >= maxEvalDepth {
			return 1
		}
		k := key{side, depth, canon}
		if n, ok := memo[k]; ok {
			return n
		}
		n := 1
		if s := ads[side].find(canon); s != nil {
			walkRefs(s.expr, func(scope, ref string) {
				switch scope {
				case "my":
					n += cost(side, ref, depth+1)
				case "target":
					n += cost(1-side, ref, depth+1)
				default:
					n += cost(side, ref, depth+1) + cost(1-side, ref, depth+1)
				}
			})
		}
		n = min(n, maxDerefs)
		memo[k] = n
		return n
	}
	worst := 0
	for side, a := range ads {
		for _, s := range a.slots {
			worst = max(worst, cost(side, s.canon, 0))
		}
	}
	return worst
}

func checkAdOp(t *testing.T, step string, ad *Ad, model *mapAd, cp *Ad, sigA, sigM *Signer) {
	t.Helper()
	if ad.Version() != model.version {
		t.Fatalf("after %s: Version %d, model %d", step, ad.Version(), model.version)
	}
	if got, want := ad.Names(), model.names(); !slices.Equal(got, want) {
		t.Fatalf("after %s: Names %q, model %q", step, got, want)
	}
	if got, want := ad.String(), model.String(); got != want {
		t.Fatalf("after %s: String %q, model %q", step, got, want)
	}
	oracle := model.boxed()
	same := func(what string, got, want Value) {
		if got.Kind() != want.Kind() || got.String() != want.String() {
			t.Fatalf("after %s: %s = %v, model %v (%s)", step, what, got, want, ad)
		}
	}
	for _, n := range adOpEvals {
		same("Eval("+n+")", ad.Eval(n), oracle.Eval(n))
		same("EvalWithTarget("+n+")", ad.EvalWithTarget(n, cp), oracle.EvalWithTarget(n, cp))
	}
	if got, want := Match(ad, cp), Match(oracle, cp); got != want {
		t.Fatalf("after %s: Match(ad, counterpart) %v, model %v (%s)", step, got, want, ad)
	}
	if got, want := Match(cp, ad), Match(cp, oracle); got != want {
		t.Fatalf("after %s: Match(counterpart, ad) %v, model %v (%s)", step, got, want, ad)
	}
	if got, want := sigA.AppendSignature(nil, ad, adOpRoots), sigM.AppendSignature(nil, oracle, adOpRoots); !bytes.Equal(got, want) {
		t.Fatalf("after %s: signature %q, model %q", step, got, want)
	}
	if got, want := sigA.FoldRequirements(ad), sigM.FoldRequirements(oracle); got != want {
		t.Fatalf("after %s: FoldRequirements %d, model %d (%s)", step, got, want, ad)
	}
	if got, want := FoldConstant(ad), FoldConstant(oracle); got != want {
		t.Fatalf("after %s: FoldConstant %d, model %d (%s)", step, got, want, ad)
	}
	if got, want := ad.TargetRefs("Requirements"), oracle.TargetRefs("Requirements"); !slices.Equal(got, want) {
		t.Fatalf("after %s: TargetRefs %q, model %q", step, got, want)
	}
}
