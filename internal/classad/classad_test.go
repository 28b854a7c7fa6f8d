package classad

import (
	"strings"
	"testing"
)

// evalStr parses and evaluates src with no environment.
func evalStr(t *testing.T, src string) Value {
	t.Helper()
	e, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	return e.Eval(Env{})
}

func wantInt(t *testing.T, src string, want int64) {
	t.Helper()
	v := evalStr(t, src)
	got, ok := v.IntValue()
	if !ok || got != want {
		t.Errorf("eval(%q) = %v, want %d", src, v, want)
	}
}

func wantReal(t *testing.T, src string, want float64) {
	t.Helper()
	v := evalStr(t, src)
	got, ok := v.RealValue()
	if !ok || v.Kind() != KindReal || got != want {
		t.Errorf("eval(%q) = %v, want real %v", src, v, want)
	}
}

func wantBool(t *testing.T, src string, want bool) {
	t.Helper()
	v := evalStr(t, src)
	got, ok := v.BoolValue()
	if !ok || got != want {
		t.Errorf("eval(%q) = %v, want %v", src, v, want)
	}
}

func TestArithmetic(t *testing.T) {
	wantInt(t, "1 + 2", 3)
	wantInt(t, "10 - 4", 6)
	wantInt(t, "6 * 7", 42)
	wantInt(t, "7 / 2", 3) // integer division truncates
	wantInt(t, "7 % 3", 1)
	wantInt(t, "2 + 3 * 4", 14)   // precedence
	wantInt(t, "(2 + 3) * 4", 20) // parens
	wantInt(t, "-5 + 2", -3)      // unary minus
	wantInt(t, "- - 5", 5)        // nested unary
	wantReal(t, "7.0 / 2", 3.5)   // real promotion
	wantReal(t, "1 + 0.5", 1.5)
	wantReal(t, "2.5e2 / 10", 25.0) // exponent literal
}

func TestDivisionByZero(t *testing.T) {
	if v := evalStr(t, "1 / 0"); !v.IsError() {
		t.Errorf("1/0 = %v, want error", v)
	}
	if v := evalStr(t, "1 % 0"); !v.IsError() {
		t.Errorf("1%%0 = %v, want error", v)
	}
	if v := evalStr(t, "1.0 / 0"); !v.IsError() {
		t.Errorf("1.0/0 = %v, want error", v)
	}
}

func TestComparisons(t *testing.T) {
	wantBool(t, "3 < 4", true)
	wantBool(t, "3 >= 4", false)
	wantBool(t, "3 == 3.0", true) // mixed numeric
	wantBool(t, "3 != 4", true)
	wantBool(t, `"abc" == "ABC"`, true) // case-insensitive, as in Condor
	wantBool(t, `"abc" == "abd"`, false)
	wantBool(t, `"abc" < "abd"`, true)
	wantBool(t, "true == true", true)
	wantBool(t, "true != false", true)
}

func TestMixedTypeComparisonIsError(t *testing.T) {
	if v := evalStr(t, `"abc" == 3`); !v.IsError() {
		t.Errorf("string==int = %v, want error", v)
	}
	if v := evalStr(t, `true < false`); !v.IsError() {
		t.Errorf("bool ordering = %v, want error", v)
	}
}

func TestBooleanLogic(t *testing.T) {
	wantBool(t, "true && true", true)
	wantBool(t, "true && false", false)
	wantBool(t, "false || true", true)
	wantBool(t, "false || false", false)
	wantBool(t, "!true", false)
	wantBool(t, "!(1 > 2)", true)
	wantBool(t, "true || false && false", true) // && binds tighter
}

func TestThreeValuedLogic(t *testing.T) {
	// Undefined comes from referencing a missing attribute.
	wantBool(t, "missing && false", false) // false dominates undefined
	wantBool(t, "missing || true", true)   // true dominates undefined
	if v := evalStr(t, "missing && true"); !v.IsUndefined() {
		t.Errorf("undefined && true = %v, want undefined", v)
	}
	if v := evalStr(t, "missing || false"); !v.IsUndefined() {
		t.Errorf("undefined || false = %v, want undefined", v)
	}
	if v := evalStr(t, "!missing"); !v.IsUndefined() {
		t.Errorf("!undefined = %v, want undefined", v)
	}
	if v := evalStr(t, "missing + 1"); !v.IsUndefined() {
		t.Errorf("undefined + 1 = %v, want undefined", v)
	}
	if v := evalStr(t, "missing == 1"); !v.IsUndefined() {
		t.Errorf("undefined == 1 = %v, want undefined", v)
	}
}

func TestLiteralKeywords(t *testing.T) {
	wantBool(t, "TRUE", true)
	wantBool(t, "False", false)
	if v := evalStr(t, "UNDEFINED"); !v.IsUndefined() {
		t.Errorf("undefined literal = %v", v)
	}
	if v := evalStr(t, "error && true"); !v.IsError() {
		t.Errorf("error propagation = %v, want error", v)
	}
}

func TestStringEscapes(t *testing.T) {
	v := evalStr(t, `"a\"b\\c\nd"`)
	s, ok := v.StringValue()
	if !ok || s != "a\"b\\c\nd" {
		t.Errorf("escaped string = %q", s)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"", "1 +", "(1", `"unterminated`, "1 2", "&&", "my", "my.",
		"1 @ 2", `"bad \q escape"`, "my.()",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

func TestAttributeResolution(t *testing.T) {
	ad := NewAd()
	ad.SetInt("Memory", 8192)
	ad.SetStr("Name", "slot1@node3")
	if v := ad.Eval("memory"); v.String() != "8192" {
		t.Errorf("case-insensitive lookup failed: %v", v)
	}
	if v := ad.Eval("nonexistent"); !v.IsUndefined() {
		t.Errorf("missing attr = %v, want undefined", v)
	}
}

func TestAttributeExprChaining(t *testing.T) {
	ad := NewAd()
	ad.SetInt("PhiMemory", 8192)
	ad.MustSetExpr("FreeMemory", "PhiMemory - 2048")
	v := ad.Eval("FreeMemory")
	if i, ok := v.IntValue(); !ok || i != 6144 {
		t.Errorf("chained attr = %v, want 6144", v)
	}
}

func TestCircularReferenceDetected(t *testing.T) {
	ad := NewAd()
	ad.MustSetExpr("A", "B + 1")
	ad.MustSetExpr("B", "A + 1")
	v := ad.Eval("A")
	if !v.IsError() {
		t.Errorf("circular reference = %v, want error", v)
	}
}

func TestScopedReferences(t *testing.T) {
	machine := NewAd()
	machine.SetInt("PhiFreeMemory", 4096)
	machine.SetStr("Name", "slot1@node2")
	job := NewAd()
	job.SetInt("RequestPhiMemory", 1000)
	job.MustSetExpr("Requirements", "TARGET.PhiFreeMemory >= MY.RequestPhiMemory")
	v := job.EvalWithTarget("Requirements", machine)
	if b, ok := v.BoolValue(); !ok || !b {
		t.Errorf("scoped requirements = %v, want true", v)
	}
}

func TestUnscopedFallsThroughToTarget(t *testing.T) {
	machine := NewAd()
	machine.SetInt("PhiFreeMemory", 512)
	job := NewAd()
	job.SetInt("RequestPhiMemory", 1000)
	// Unscoped names: RequestPhiMemory in MY, PhiFreeMemory in TARGET.
	job.MustSetExpr("Requirements", "PhiFreeMemory >= RequestPhiMemory")
	v := job.EvalWithTarget("Requirements", machine)
	if b, ok := v.BoolValue(); !ok || b {
		t.Errorf("requirements = %v, want false (512 < 1000)", v)
	}
}

func TestMatchSymmetric(t *testing.T) {
	machine := NewAd()
	machine.SetStr("Name", "slot1@node0")
	machine.SetInt("PhiDevices", 1)
	machine.SetInt("PhiFreeMemory", 8192)
	machine.MustSetExpr("Requirements", "TARGET.RequestPhiMemory <= MY.PhiFreeMemory")

	job := NewAd()
	job.SetInt("RequestPhiMemory", 1250)
	job.MustSetExpr("Requirements", "TARGET.PhiDevices >= 1")

	if !Match(machine, job) {
		t.Error("compatible ads did not match")
	}

	big := NewAd()
	big.SetInt("RequestPhiMemory", 9999)
	big.MustSetExpr("Requirements", "TARGET.PhiDevices >= 1")
	if Match(machine, big) {
		t.Error("machine accepted job exceeding free memory")
	}
}

func TestMatchMissingRequirementsAcceptsAll(t *testing.T) {
	a, b := NewAd(), NewAd()
	if !Match(a, b) {
		t.Error("empty ads should match")
	}
}

func TestMatchUndefinedRejects(t *testing.T) {
	a := NewAd()
	a.MustSetExpr("Requirements", "TARGET.NoSuchAttr == 1")
	b := NewAd()
	if Match(a, b) {
		t.Error("undefined requirements accepted a match")
	}
}

func TestQeditPinningScenario(t *testing.T) {
	// The paper's condor_qedit integration: the knapsack scheduler rewrites
	// job Requirements to pin the job to one slot name.
	job := NewAd()
	job.SetInt("RequestPhiMemory", 500)
	job.MustSetExpr("Requirements", `Name == "slot1@node4"`)

	right := NewAd()
	right.SetStr("Name", "slot1@node4")
	wrong := NewAd()
	wrong.SetStr("Name", "slot1@node5")

	if !Match(job, right) {
		t.Error("pinned job did not match its designated node")
	}
	if Match(job, wrong) {
		t.Error("pinned job matched a different node")
	}
}

func TestAdStringRoundTrips(t *testing.T) {
	ad := NewAd()
	ad.SetInt("X", 3)
	ad.MustSetExpr("Requirements", "X > 2 && Y < 5")
	s := ad.String()
	if !strings.Contains(s, "Requirements") || !strings.Contains(s, "X = 3") {
		t.Errorf("Ad.String() = %q", s)
	}
	// Every attribute's rendered expression must re-parse.
	for _, name := range ad.Names() {
		expr, _ := ad.lookup(name)
		if _, err := Parse(expr.String()); err != nil {
			t.Errorf("rendered expr %q does not re-parse: %v", expr.String(), err)
		}
	}
}

func TestExprStringRoundTripPreservesValue(t *testing.T) {
	srcs := []string{
		"1 + 2 * 3",
		"(1 + 2) * 3",
		"a && b || !c",
		`Name == "slot1@node2" && RequestPhiMemory <= 8192`,
		"-x + 4 >= 2.5",
	}
	env := Env{My: NewAd()}
	env.My.SetInt("a", 0) // force bool errors to be stable: unused
	for _, src := range srcs {
		e1, err := Parse(src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", src, err)
		}
		e2, err := Parse(e1.String())
		if err != nil {
			t.Fatalf("re-Parse(%q): %v", e1.String(), err)
		}
		v1, v2 := e1.Eval(Env{}), e2.Eval(Env{})
		if v1.String() != v2.String() {
			t.Errorf("round trip of %q changed value: %v vs %v", src, v1, v2)
		}
	}
}

func TestValueStrings(t *testing.T) {
	cases := map[string]Value{
		"undefined": Undefined(),
		"true":      Bool(true),
		"42":        Int(42),
		"2.5":       Real(2.5),
		`"hi"`:      Str("hi"),
	}
	for want, v := range cases {
		if got := v.String(); got != want {
			t.Errorf("%v.String() = %q, want %q", v.Kind(), got, want)
		}
	}
}
