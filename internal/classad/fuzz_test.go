package classad

import (
	"strings"
	"testing"
)

// FuzzParse checks the parser's robustness contract: any input either
// yields an error or an expression that (a) evaluates without panicking and
// (b) round-trips through String() to an equivalent value. Run with
// `go test -fuzz=FuzzParse ./internal/classad` for continuous fuzzing; the
// seed corpus below runs in every ordinary `go test`.
func FuzzParse(f *testing.F) {
	seeds := []string{
		``,
		`1 + 2 * 3`,
		`TARGET.Name == "slot1@node3"`,
		`my.a && target.b || !c`,
		`ifThenElse(x > 2, min(1, 2), strcat("a", 1))`,
		`((((1))))`,
		`"unterminated`,
		`1 / 0 == error`,
		`undefined || true`,
		`-2.5e3 % 7`,
		`stringListMember("a", "a,b;c", ";,")`,
		`a.b.c`,
		`!!!!!true`,
		`x == y == z`,
		"\"escape\\\\\\\"seq\\n\"",
		`9223372036854775807 + 1`,
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 4096 {
			return // bound parser work per input
		}
		expr, err := Parse(src)
		if err != nil {
			return // rejected inputs are fine
		}
		// Accepted inputs must evaluate and round-trip without panic.
		v1 := expr.Eval(Env{})
		rendered := expr.String()
		expr2, err := Parse(rendered)
		if err != nil {
			t.Fatalf("rendered expression does not re-parse: %q -> %q: %v", src, rendered, err)
		}
		v2 := expr2.Eval(Env{})
		if v1.String() != v2.String() {
			t.Fatalf("round trip changed value: %q -> %q (%v vs %v)", src, rendered, v1, v2)
		}
	})
}

// FuzzMatch fuzzes matchmaking with attribute values flowing into both
// ads. Match must never panic, whatever the requirements say, and must be
// pure: the negotiator serves one verdict to a whole autocluster where its
// DisableMatchCache oracle calls Match per pair, so Match may change
// neither ad (version and rendering) and a second call returns the same
// verdict.
func FuzzMatch(f *testing.F) {
	f.Add(`TARGET.X > MY.Y`, int64(3), int64(4))
	f.Add(`Name == "a" && missing`, int64(0), int64(0))
	f.Add(`error || true`, int64(1), int64(2))
	f.Add(`MY.X > TARGET.Y`, int64(4), int64(3))
	f.Add(`ifThenElse(TARGET.Y > 0, X > 0, false)`, int64(1), int64(1))
	f.Fuzz(func(t *testing.T, req string, x, y int64) {
		if len(req) > 1024 {
			return
		}
		machine := NewAd()
		machine.SetInt("X", x)
		machine.SetStr("Name", "a")
		if err := machine.SetExpr("Requirements", req); err != nil {
			return
		}
		jobAd := NewAd()
		jobAd.SetInt("Y", y)
		mv, jv := machine.Version(), jobAd.Version()
		ms, js := machine.String(), jobAd.String()
		verdict := Match(machine, jobAd)
		if machine.Version() != mv || jobAd.Version() != jv {
			t.Fatalf("Match changed an ad's version: machine %d -> %d, job %d -> %d",
				mv, machine.Version(), jv, jobAd.Version())
		}
		if machine.String() != ms || jobAd.String() != js {
			t.Fatalf("Match changed an ad: machine %s -> %s, job %s -> %s",
				ms, machine.String(), js, jobAd.String())
		}
		if again := Match(machine, jobAd); again != verdict {
			t.Fatalf("Match is not repeatable: %v then %v", verdict, again)
		}
	})
}

func TestFuzzSeedsAreInteresting(t *testing.T) {
	// Sanity: at least some seeds parse and some are rejected, so the fuzz
	// contract exercises both paths.
	parsed, rejected := 0, 0
	for _, s := range []string{`1 + 2 * 3`, `"unterminated`, `a.b.c`, `!!!!!true`} {
		if _, err := Parse(s); err != nil {
			rejected++
		} else {
			parsed++
		}
	}
	if parsed == 0 || rejected == 0 {
		t.Errorf("seed mix degenerate: %d parsed, %d rejected", parsed, rejected)
	}
	_ = strings.TrimSpace("")
}
