package classad

import "testing"

// TestFoldRequirements pins the job-side classification: a Requirements
// that can read nothing from the counterpart — directly or through MY — is
// folded to its verdict; any TARGET or unscoped reference in the closure
// leaves it machine-dependent.
func TestFoldRequirements(t *testing.T) {
	for _, tc := range []struct {
		req  string // "" leaves Requirements unbound
		pin  string // bound as Pin when non-empty
		want Fold
	}{
		{"", "", FoldTrue},
		{"true", "", FoldTrue},
		{"false", "", FoldFalse},
		{"undefined", "", FoldFalse},
		{"error", "", FoldFalse},
		{"1 / 0 == 1", "", FoldFalse},
		{"42", "", FoldFalse},
		{"MY.Missing", "", FoldFalse},
		{"MY.JobId < 0", "", FoldFalse},
		{"MY.JobId > 0 && strlen(\"ab\") == 2", "", FoldTrue},
		{"MY.Pin", "true", FoldTrue},
		{"MY.Pin", "false", FoldFalse},
		{"MY.Pin", "MY.Pin", FoldFalse}, // a reference cycle is an error everywhere
		{"MY.Pin", "TARGET.Name == \"a\"", FoldNone},
		{"MY.Pin", "Name == \"a\"", FoldNone},
		{"Pin", "true", FoldNone}, // unscoped: the superset TargetRefs walks
		{"TARGET.Name == \"a\"", "", FoldNone},
		{"MY.JobId > 0 || TARGET.X", "", FoldNone},
		{"ifThenElse(MY.JobId > 0, true, TARGET.X)", "", FoldNone},
	} {
		ad := NewAd()
		ad.SetInt("JobId", 7)
		if tc.req != "" {
			ad.MustSetExpr("Requirements", tc.req)
		}
		if tc.pin != "" {
			ad.MustSetExpr("Pin", tc.pin)
		}
		if got := NewSigner().FoldRequirements(ad); got != tc.want {
			t.Errorf("Requirements = %q, Pin = %q: fold %d, want %d", tc.req, tc.pin, got, tc.want)
		}
	}
}

// TestFoldConstant pins the machine-side classification: only an
// expression that references no attribute at all folds.
func TestFoldConstant(t *testing.T) {
	for _, tc := range []struct {
		req  string
		want Fold
	}{
		{"", FoldTrue},
		{"true", FoldTrue},
		{"1 < 2 && strcat(\"a\", \"b\") == \"ab\"", FoldTrue},
		{"false", FoldFalse},
		{"undefined || false", FoldFalse},
		{"MY.PhiFreeMemory > 0", FoldNone},
		{"TARGET.RequestPhiMemory <= MY.PhiFreeMemory", FoldNone},
	} {
		ad := NewAd()
		ad.SetInt("PhiFreeMemory", 8000)
		if tc.req != "" {
			ad.MustSetExpr("Requirements", tc.req)
		}
		if got := FoldConstant(ad); got != tc.want {
			t.Errorf("Requirements = %q: fold %d, want %d", tc.req, got, tc.want)
		}
	}
}

func TestFoldMeet(t *testing.T) {
	folds := []Fold{FoldNone, FoldFalse, FoldTrue}
	for _, f := range folds {
		for _, g := range folds {
			want := FoldNone
			switch {
			case f == FoldFalse || g == FoldFalse:
				want = FoldFalse
			case f == FoldTrue && g == FoldTrue:
				want = FoldTrue
			}
			if got := f.Meet(g); got != want {
				t.Errorf("%d.Meet(%d) = %d, want %d", f, g, got, want)
			}
		}
	}
}

// TestFoldRequirementsDoesNotAllocate: the negotiator classifies every
// newly interned autocluster, so the walk must run on the signer's scratch.
func TestFoldRequirementsDoesNotAllocate(t *testing.T) {
	ad := NewAd()
	ad.MustSetExpr("Requirements", "MY.Pin && MY.JobId > 0")
	ad.MustSetExpr("Pin", "MY.Other || false")
	ad.SetInt("JobId", 3)
	s := NewSigner()
	s.FoldRequirements(ad) // grow the scratch
	if n := testing.AllocsPerRun(100, func() { s.FoldRequirements(ad) }); n != 0 {
		t.Fatalf("FoldRequirements allocates %.1f times per call, want 0", n)
	}
}

// FuzzTargetFreeFold is the differential check of the fold against its
// oracle, classad.Match. A fuzzed job Requirements plus one MY-indirected
// attribute (Pin) is classified; whenever the fold calls it
// machine-independent, Match against several machine ads — which bind the
// names the job reads, with fuzzed values, and carry no Requirements of
// their own — must give the folded verdict. The same expression installed
// as a machine's Requirements is checked against FoldConstant the same way.
func FuzzTargetFreeFold(f *testing.F) {
	f.Add(`MY.Pin`, `TARGET.Name == "slot1@node0"`, int64(3), "slot1@node0")
	f.Add(`MY.Pin && MY.RequestPhiMemory > 0`, `true`, int64(-1), "x")
	f.Add(`Pin`, `false`, int64(0), "")
	f.Add(`undefined`, `1`, int64(7), "Pin")
	f.Add(`isUndefined(MY.Name)`, `error`, int64(2), "a")
	f.Fuzz(func(t *testing.T, req, pin string, x int64, name string) {
		if len(req) > 1024 || len(pin) > 1024 {
			return
		}
		job := NewAd()
		job.SetInt("RequestPhiMemory", x)
		if err := job.SetExpr("Requirements", req); err != nil {
			return
		}
		if err := job.SetExpr("Pin", pin); err != nil {
			return
		}
		machines := []*Ad{NewAd(), NewAd(), NewAd(), NewAd()}
		machines[1].SetStr("Name", name)
		machines[1].SetInt("X", x)
		machines[1].SetInt("Pin", x)
		machines[2].SetStr("Name", "other")
		machines[2].SetStr("Pin", name)
		machines[2].SetInt("RequestPhiMemory", -x)
		machines[3].SetStr("X", name)
		machines[3].Set("Pin", Bool(x%2 == 0))
		machines[3].Set("Missing", Bool(true))
		if fold := NewSigner().FoldRequirements(job); fold != FoldNone {
			for i, m := range machines {
				if got := Match(m, job); got != (fold == FoldTrue) {
					t.Fatalf("job Requirements %q (Pin %q) folds to %d, but Match against machine %d is %v",
						req, pin, fold, i, got)
				}
			}
		}

		machine := NewAd()
		machine.SetInt("PhiFreeMemory", x)
		if err := machine.SetExpr("Requirements", req); err != nil {
			return
		}
		if fold := FoldConstant(machine); fold != FoldNone {
			jobs := []*Ad{NewAd(), NewAd()}
			jobs[1].SetInt("RequestPhiMemory", x)
			jobs[1].SetStr("Name", name)
			jobs[1].SetInt("PhiFreeMemory", -x)
			for i, j := range jobs {
				if got := Match(machine, j); got != (fold == FoldTrue) {
					t.Fatalf("machine Requirements %q folds to %d, but Match against job %d is %v",
						req, fold, i, got)
				}
			}
		}
	})
}
