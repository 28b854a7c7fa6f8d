package job

import (
	"testing"

	"phishare/internal/rng"
	"phishare/internal/units"
)

func validJob() *Job {
	return &Job{
		ID: 1, Name: "t#1", Workload: "t",
		Mem: 500, Threads: 120, ActualPeakMem: 450,
		Phases: []Phase{
			{Kind: HostPhase, Duration: 1000},
			{Kind: OffloadPhase, Duration: 2000, Threads: 120},
			{Kind: HostPhase, Duration: 500},
			{Kind: OffloadPhase, Duration: 1000, Threads: 60},
		},
	}
}

func TestValidateAccepts(t *testing.T) {
	if err := validJob().Validate(); err != nil {
		t.Errorf("valid job rejected: %v", err)
	}
}

func TestValidateRejects(t *testing.T) {
	cases := map[string]func(*Job){
		"zero memory":             func(j *Job) { j.Mem = 0 },
		"zero threads":            func(j *Job) { j.Threads = 0 },
		"no phases":               func(j *Job) { j.Phases = nil },
		"zero-duration phase":     func(j *Job) { j.Phases[0].Duration = 0 },
		"host phase with threads": func(j *Job) { j.Phases[0].Threads = 10 },
		"offload with no threads": func(j *Job) { j.Phases[1].Threads = 0 },
		"offload above declared":  func(j *Job) { j.Phases[1].Threads = 240 },
		"invalid phase kind":      func(j *Job) { j.Phases[0].Kind = PhaseKind(9) },
	}
	for name, mutate := range cases {
		j := validJob()
		mutate(j)
		if err := j.Validate(); err == nil {
			t.Errorf("%s: Validate accepted an invalid job", name)
		}
	}
}

func TestSequentialAndOffloadTime(t *testing.T) {
	j := validJob()
	if got := j.SequentialTime(); got != 4500 {
		t.Errorf("SequentialTime = %v, want 4500", got)
	}
	if got := j.OffloadTime(); got != 3000 {
		t.Errorf("OffloadTime = %v, want 3000", got)
	}
	if got := j.OffloadDutyCycle(); got != 3000.0/4500.0 {
		t.Errorf("OffloadDutyCycle = %v", got)
	}
}

func TestOffloadDutyCycleEmptyJob(t *testing.T) {
	j := &Job{}
	if got := j.OffloadDutyCycle(); got != 0 {
		t.Errorf("empty job duty cycle = %v, want 0", got)
	}
}

func TestMaxOffloadThreads(t *testing.T) {
	j := validJob()
	if got := j.MaxOffloadThreads(); got != 120 {
		t.Errorf("MaxOffloadThreads = %v, want 120", got)
	}
}

func TestTableOneMatchesPaper(t *testing.T) {
	// Table I thread counts and memory ranges must match the paper exactly.
	want := map[string]struct {
		threads units.Threads
		lo, hi  units.MB
	}{
		"KM": {60, 300, 1250},
		"MC": {180, 400, 650},
		"MD": {180, 300, 750},
		"SG": {60, 500, 3400},
		"BT": {240, 300, 1250},
		"SP": {180, 300, 1850},
		"LU": {180, 400, 1250},
	}
	templates := TableOne()
	if len(templates) != 7 {
		t.Fatalf("TableOne has %d templates, want 7", len(templates))
	}
	for _, tpl := range templates {
		w, ok := want[tpl.Name]
		if !ok {
			t.Errorf("unexpected template %q", tpl.Name)
			continue
		}
		if tpl.Threads != w.threads || tpl.MemLo != w.lo || tpl.MemHi != w.hi {
			t.Errorf("%s = (%v, %v-%v), want (%v, %v-%v)",
				tpl.Name, tpl.Threads, tpl.MemLo, tpl.MemHi, w.threads, w.lo, w.hi)
		}
	}
}

func TestInstantiateProducesValidJobs(t *testing.T) {
	r := rng.New(1)
	for _, tpl := range TableOne() {
		for i := 0; i < 50; i++ {
			j := tpl.Instantiate(i, r, 0)
			if err := j.Validate(); err != nil {
				t.Fatalf("%s instance invalid: %v", tpl.Name, err)
			}
			if j.Mem < tpl.MemLo || j.Mem > tpl.MemHi {
				t.Errorf("%s memory %v outside Table I range", j.Name, j.Mem)
			}
			if j.Threads != tpl.Threads {
				t.Errorf("%s declared threads %v, want %v", j.Name, j.Threads, tpl.Threads)
			}
			if j.ActualPeakMem > j.Mem {
				t.Errorf("honest instance %s has actual %v > declared %v", j.Name, j.ActualPeakMem, j.Mem)
			}
		}
	}
}

func TestInstantiateMisestimate(t *testing.T) {
	r := rng.New(2)
	var tpl Template
	for _, c := range TableOne() {
		if c.Name == "KM" {
			tpl = c
		}
	}
	over := 0
	for i := 0; i < 500; i++ {
		j := tpl.Instantiate(i, r, 1.0) // always misestimate
		if j.ActualPeakMem > j.Mem {
			over++
		}
	}
	if over != 500 {
		t.Errorf("misestimateProb=1 produced %d/500 overshoots", over)
	}
}

func TestGenerateTableOneSet(t *testing.T) {
	r := rng.New(3)
	jobs := GenerateTableOneSet(1000, r)
	if len(jobs) != 1000 {
		t.Fatalf("generated %d jobs", len(jobs))
	}
	if err := ValidateAll(jobs); err != nil {
		t.Fatalf("job set invalid: %v", err)
	}
	// All seven workloads should appear with roughly uniform frequency.
	counts := map[string]int{}
	for _, j := range jobs {
		counts[j.Workload]++
	}
	if len(counts) != 7 {
		t.Errorf("only %d workloads present: %v", len(counts), counts)
	}
	for name, c := range counts {
		if c < 80 || c > 220 {
			t.Errorf("workload %s count %d far from uniform (expect ~143)", name, c)
		}
	}
}

func TestGenerateIsDeterministic(t *testing.T) {
	a := GenerateTableOneSet(50, rng.New(7))
	b := GenerateTableOneSet(50, rng.New(7))
	for i := range a {
		if a[i].Name != b[i].Name || a[i].Mem != b[i].Mem ||
			a[i].SequentialTime() != b[i].SequentialTime() {
			t.Fatalf("generation not deterministic at job %d", i)
		}
	}
}

func TestCalibrationSequentialTimeScale(t *testing.T) {
	// The Table II calibration: 1000 jobs, 8 nodes, exclusive devices =>
	// makespan ≈ total sequential time / 8 ≈ 3568 s. So mean sequential
	// time should be in the 20–40 s band.
	jobs := GenerateTableOneSet(1000, rng.New(11))
	mean := job_meanSeqSeconds(jobs)
	if mean < 20 || mean > 40 {
		t.Errorf("mean sequential time %.1f s outside calibration band [20, 40]", mean)
	}
}

func job_meanSeqSeconds(jobs []*Job) float64 {
	var total units.Tick
	for _, j := range jobs {
		total += j.SequentialTime()
	}
	return total.Seconds() / float64(len(jobs))
}

func TestCalibrationExclusiveUtilization(t *testing.T) {
	// §III: under exclusive allocation, average core utilization ~50%
	// (38–63% across mixes). Analytically, a dedicated device's core
	// utilization for one job is duty-cycle-weighted core occupancy.
	jobs := GenerateTableOneSet(2000, rng.New(13))
	var weighted, total float64
	for _, j := range jobs {
		var busyCoreTicks float64
		for _, p := range j.Phases {
			if p.Kind == OffloadPhase {
				busyCoreTicks += float64(p.Duration) * float64(p.Threads.Cores()) / 60.0
			}
		}
		weighted += busyCoreTicks
		total += float64(j.SequentialTime())
	}
	util := weighted / total
	if util < 0.38 || util < 0.40 || util > 0.63 {
		t.Errorf("analytic exclusive-mode utilization %.2f outside the paper's 0.38-0.63 band", util)
	}
}

func TestValidateAllDuplicateIDs(t *testing.T) {
	a, b := validJob(), validJob()
	if err := ValidateAll([]*Job{a, b}); err == nil {
		t.Error("duplicate IDs accepted")
	}
}

func TestTotalSequentialTime(t *testing.T) {
	a, b := validJob(), validJob()
	b.ID = 2
	if got := TotalSequentialTime([]*Job{a, b}); got != 9000 {
		t.Errorf("TotalSequentialTime = %v, want 9000", got)
	}
}

func TestPhaseKindString(t *testing.T) {
	if HostPhase.String() != "host" || OffloadPhase.String() != "offload" {
		t.Error("PhaseKind strings wrong")
	}
}

func TestMakespanLowerBound(t *testing.T) {
	a, b := validJob(), validJob() // 4500 each
	b.ID = 2
	jobs := []*Job{a, b}
	// 2 devices: total/2 = 4500 = critical path.
	if got := MakespanLowerBound(jobs, 2); got != 4500 {
		t.Errorf("bound(2) = %v, want 4500", got)
	}
	// 1 device: total = 9000 dominates.
	if got := MakespanLowerBound(jobs, 1); got != 9000 {
		t.Errorf("bound(1) = %v, want 9000", got)
	}
	// Many devices: critical path dominates.
	if got := MakespanLowerBound(jobs, 10); got != 4500 {
		t.Errorf("bound(10) = %v, want 4500", got)
	}
	if MakespanLowerBound(nil, 2) != 0 || MakespanLowerBound(jobs, 0) != 0 {
		t.Error("degenerate bounds not 0")
	}
}
