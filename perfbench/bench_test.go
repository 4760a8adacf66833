package main

import (
	"bytes"
	"math"
	"reflect"
	"runtime/pprof"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/plasma"
	"repro/internal/synth"
)

func TestLiveLaneCycles(t *testing.T) {
	plan := []fault.PassGroup{
		// Fault 2 escapes, so the pass runs to the last golden cycle:
		// 90 cycles of 64 lanes, live 5 + 10 + 90.
		{Idxs: []int{0, 1, 2}, Start: 10, Width: 1},
		// Every fault detected: the pass ends after cycle 59, 10 cycles
		// of 128 lanes, live 10 + 5.
		{Idxs: []int{3, 4}, Start: 50, Width: 2},
	}
	detectedAt := []int32{14, 19, -1, 59, 54}
	live, alloc := liveLaneCycles(plan, detectedAt, 100)
	if live != 120 || alloc != 64*90+128*10 {
		t.Fatalf("live %v alloc %v, want 120 and %v", live, alloc, 64*90+128*10)
	}
}

func TestTailPercentile(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // unsorted on purpose
		}
		return xs
	}
	for _, c := range []struct {
		n    int
		name string
		v    float64
	}{
		{1000, "p99", 990}, // 10 samples beyond p99
		{999, "p95", 950},  // 9 beyond p99: too few
		{500, "p95", 475},  // 25 beyond p95
		{100, "p90", 90},   // 10 beyond p90
		{20, "p50", 10},    // 10 beyond the median
		{5, "max", 5},      // nothing qualifies
	} {
		name, v := tail(seq(c.n))
		if name != c.name || v != c.v {
			t.Errorf("n=%d: %s=%v, want %s=%v", c.n, name, v, c.name, c.v)
		}
	}
	if name, v := tail(seq(20000)); name != "p99" || v != 19800 {
		t.Errorf("n=20000: %s=%v", name, v)
	}
}

func phaseRoutines(t *testing.T) []core.Routine {
	cpu, err := plasma.Build(synth.NativeLib{})
	if err != nil {
		t.Fatal(err)
	}
	st, err := core.GenerateSelfTest(core.ClassifyNetlist(cpu.Netlist), core.PhaseB)
	if err != nil {
		t.Fatal(err)
	}
	return st.Routines
}

// stream returns n requests of a seeded generator with their programs.
func stream(t *testing.T, routines []core.Routine, seed int64, n int) ([]genRequest, []candidate) {
	g, err := newGenerator(seed, routines)
	if err != nil {
		t.Fatal(err)
	}
	var reqs []genRequest
	for len(reqs) < n {
		r, err := g.next()
		if err != nil {
			t.Fatal(err)
		}
		reqs = append(reqs, r)
	}
	return reqs, g.progs
}

func TestUnstolen(t *testing.T) {
	// Two vCPUs over a 10 s interval: vCPU 0 busy throughout with 2 s
	// stolen, vCPU 1 busy a quarter of the time with 0.4 s stolen, of which
	// a quarter counts. The process ran 8 s of CPU while it wanted 8 +
	// 2.1 s, so the corrected time is 10 * 8 / 10.1.
	before := parseVCPUs("cpu  0 0 0 0 0 0 0 0 0 0\n" +
		"cpu0 100 0 0 0 0 0 0 50 0 0\n" +
		"cpu1 0 0 0 0 0 0 0 0 0 0\nintr 5\n")
	after := parseVCPUs("cpu  0 0 0 0 0 0 0 0 0 0\n" +
		"cpu0 700 5 95 0 0 0 0 250 0 0\n" +
		"cpu1 150 0 0 440 10 0 0 40 0 0\n")
	if len(before) != 2 || len(after) != 2 {
		t.Fatalf("parsed %d and %d vCPUs, want 2", len(before), len(after))
	}
	t0 := time.Unix(100, 0)
	a := stamp{wall: t0, cpu: 1, vcpu: before}
	b := stamp{wall: t0.Add(10 * time.Second), cpu: 9, vcpu: after}
	if got := stolen(a, b); math.Abs(got-2.1) > 1e-9 {
		t.Errorf("stolen = %v, want 2.1", got)
	}
	if got, want := unstolen(a, b), 10*8/10.1; math.Abs(got-want) > 1e-9 {
		t.Errorf("unstolen = %v, want %v", got, want)
	}
	// Without steal readings the wall time stands.
	a.vcpu, b.vcpu = nil, nil
	if got := unstolen(a, b); got != 10 {
		t.Errorf("unstolen without /proc/stat = %v, want 10", got)
	}
}

func TestWindowRates(t *testing.T) {
	// Three stamps 2 s apart: the first window loses 1 of 2 s to steal on
	// its only busy vCPU, the second none.
	t0 := time.Unix(100, 0)
	stamps := []stamp{
		{wall: t0, cpu: 0, vcpu: []vcpuTicks{{}}},
		{wall: t0.Add(2 * time.Second), cpu: 1, vcpu: []vcpuTicks{{busy: 100, steal: 100}}},
		{wall: t0.Add(4 * time.Second), cpu: 3, vcpu: []vcpuTicks{{busy: 300, steal: 100}}},
	}
	rates, stretch := windowRates(stamps, 10)
	if !reflect.DeepEqual(rates, []float64{10, 5}) || !reflect.DeepEqual(stretch, []float64{2, 1}) {
		t.Fatalf("rates %v stretch %v, want [10 5] and [2 1]", rates, stretch)
	}
}

func TestGeneratorDeterministic(t *testing.T) {
	routines := phaseRoutines(t)
	const n = 200
	r1, p1 := stream(t, routines, 7, n)
	r2, p2 := stream(t, routines, 7, n)
	if !reflect.DeepEqual(r1, r2) || !reflect.DeepEqual(p1, p2) {
		t.Fatal("the same seed produced different request streams")
	}
	r3, _ := stream(t, routines, 8, n)
	if reflect.DeepEqual(r1, r3) {
		t.Fatal("different seeds produced the same request stream")
	}

	if r1[0].kind != "fresh" {
		t.Fatalf("stream opens with a %s request", r1[0].kind)
	}
	counts := map[string]int{}
	for _, r := range r1 {
		counts[r.kind]++
		if r.sample < minSample || r.sample > maxSample {
			t.Fatalf("request %d samples %d faults", r.id, r.sample)
		}
	}
	if counts["fresh"] != 3*n/4 || counts["resample"] != n/8 || counts["repeat"] != n/8 {
		t.Fatalf("mix %v over %d requests", counts, n)
	}
	seen := map[uint64]bool{}
	kinds := map[string]int{}
	for i := range p1 {
		id := p1[i].identity()
		if seen[id] {
			t.Fatalf("fresh program %d repeats an earlier one", i)
		}
		seen[id] = true
		kinds[p1[i].kind]++
	}
	if kinds["routines"] == 0 || kinds["baseline"] == 0 {
		t.Fatalf("fresh programs by kind: %v", kinds)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "bench.root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "fault.a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "fault.b", Start: 40, End: 80},
		{ID: 4, Parent: 1, Name: "fault.c", Start: 60, End: 90},
	}
	// b and c overlap on [60,80] and split it.
	want := []float64{30, 20, 30, 20}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Fatalf("self times %v, want %v", got, want)
	}
}

func TestLayerSelfUncovered(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "bench.root", Start: 0, End: 100e9},
		{ID: 2, Parent: 1, Name: "bench.setup", Start: 0, End: 10e9},
		{ID: 3, Parent: 2, Name: "plasma.build", Start: 2e9, End: 6e9},
		{ID: 4, Parent: 1, Name: "fault.simulate", Start: 20e9, End: 90e9},
	}
	// The root's own time, [10,20] and [90,100], is in no layer span.
	want := map[string]float64{"uncovered": 20, "bench": 6, "plasma": 4, "fault": 70}
	if got := layerSelf(spans); !reflect.DeepEqual(got, want) {
		t.Fatalf("layer self times %v, want %v", got, want)
	}
}

func TestGateBucket(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/gate.kAnd2W64":               "kernel",
		"repro/internal/gate.kComp512Mux2W64":        "kernel",
		"repro/internal/gate.batchEvalGo16":          "kernel",
		"repro/internal/gate.(*Sim).patchHooks":      "patch",
		"repro/internal/gate.(*Sim).ReplaceFaults":   "patch",
		"repro/internal/gate.(*Sim).sweep64":         "sweep",
		"repro/internal/gate.(*Sim).evalEvent":       "sweep",
		"repro/internal/fault.(*passRunner).runPass": "",
		"runtime.mallocgc":                           "",
	} {
		if got := gateBucket(fn); got != want {
			t.Errorf("gateBucket(%s) = %q, want %q", fn, got, want)
		}
	}
}

var sink float64

// burn spins on register-only arithmetic, so that its samples land in
// burn itself even under the race detector.
//
//go:noinline
func burn(d time.Duration) float64 {
	x := 0.0
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 100000; i++ {
			x += math.Sqrt(float64(i))
		}
	}
	return x
}

func TestProfileSelf(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	sink = burn(500 * time.Millisecond)
	pprof.StopCPUProfile()
	self, err := profileSelf(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	total := 0.0
	for _, ns := range self {
		total += ns
	}
	if total <= 0 || self["repro/perfbench.burn"] < total/2 {
		t.Fatalf("burn has %v of %v sampled ns", self["repro/perfbench.burn"], total)
	}
}

func TestReadTable5(t *testing.T) {
	rows, err := readTable5("../" + table5File)
	if err != nil {
		t.Fatal(err)
	}
	if p := rows["Plasma"]; p.fc != [2]string{"91.15", "94.80"} {
		t.Fatalf("overall row %v", p.fc)
	}
	if r := rows["MCTRL"]; r.fc != [2]string{"27.19", "92.32"} || r.mofc != [2]string{"2.23", "0.24"} {
		t.Fatalf("MCTRL row %+v", r)
	}
}

func TestReplayPlanMatchesSimulate(t *testing.T) {
	e, err := buildEnv(nil, 0, []core.PhaseID{core.PhaseA}, []core.PhaseID{core.PhaseA})
	if err != nil {
		t.Fatal(err)
	}
	g := e.goldens[core.PhaseA]
	faults := fault.SampleFaults(e.faults, 512, 3)
	want, err := fault.Simulate(e.cpu, g, faults, fault.Options{Workers: table5Workers})
	if err != nil {
		t.Fatal(err)
	}
	// One-word lanes split the sample into several passes, so both
	// replay workers get some.
	plan, _, err := fault.PlanPasses(e.cpu.Netlist, g, faults, fault.EngineEvent, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan) < 2*table5Workers {
		t.Fatalf("plan has %d passes", len(plan))
	}
	tr := newTracer()
	got, err := replayPlan(tr, 0, e.cpu, g, faults, plan)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameOutcomes(want, got.DetectedAt, got.SignatureGroups); err != nil {
		t.Fatal(err)
	}
	if n := len(tr.named("fault.pass")); n != len(plan) {
		t.Fatalf("%d pass spans for %d passes", n, len(plan))
	}
}
