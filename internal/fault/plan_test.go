package fault

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/gate"
	"repro/internal/plasma"
)

var update = flag.Bool("update", false, "rewrite golden files with current results")

// fullUniversePlans renders the full-universe Phase A and A+B pass plans
// (width, start cycle, fault count per pass, in dispatch order) as
// PlanPasses packs them under the current SIMD setting.
func fullUniversePlans(t *testing.T) string {
	t.Helper()
	cpu := getCPU(t)
	comps := core.ClassifyNetlist(cpu.Netlist)
	faults := Universe(cpu.Netlist)
	var sb strings.Builder
	fmt.Fprintf(&sb, "# Full-universe pass plans (%d faults), engine event, lane cap %d.\n", len(faults), DefaultLaneWords)
	sb.WriteString("# Regenerate: go test ./internal/fault -run TestPlanPinned -update\n")
	for _, ph := range []core.PhaseID{core.PhaseA, core.PhaseB} {
		st, err := core.GenerateSelfTest(comps, ph)
		if err != nil {
			t.Fatal(err)
		}
		golden, err := plasma.CaptureGolden(cpu, st.Program, st.GateCycles())
		if err != nil {
			t.Fatal(err)
		}
		plan, skipped, err := PlanPasses(cpu.Netlist, golden, faults, EngineEvent, 0)
		if err != nil {
			t.Fatal(err)
		}
		name := "A"
		if ph == core.PhaseB {
			name = "A+B"
		}
		fmt.Fprintf(&sb, "phase %s: %d passes, %d skipped\n", name, len(plan), skipped)
		for i, p := range plan {
			fmt.Fprintf(&sb, "%2d w=%d start=%d len=%d\n", i, p.Width, p.Start, len(p.Idxs))
		}
	}
	return sb.String()
}

// TestPlanPinned pins the full-universe Phase A and A+B pass plans with
// the SIMD kernels on and off. The plan decides how many passes run, how
// wide, and from which cycle, so it sets both the wall time and the peak
// memory of a Table 5 grade: a change to the width cost model
// (wordScale) or to the packer shows up here as a golden diff before it
// shows up as a benchmark regression.
func TestPlanPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("two full-universe golden captures per setting; skipped with -short")
	}
	prev := gate.SetSIMD(true)
	defer gate.SetSIMD(prev)
	for _, tc := range []struct {
		simd bool
		file string
	}{
		{true, "plan_simd.golden"},
		{false, "plan_generic.golden"},
	} {
		if tc.simd && !gate.SIMDAvailable() {
			t.Logf("%s: no assembly kernels on this host/build, not checked", tc.file)
			continue
		}
		gate.SetSIMD(tc.simd)
		got := fullUniversePlans(t)
		path := filepath.Join("testdata", tc.file)
		if *update {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (run with -update to create)", err)
		}
		if got != string(want) {
			t.Errorf("%s (kernels %s): plan drifted from golden file:\n--- got ---\n%s--- want ---\n%s",
				tc.file, gate.SIMDKernelName(), got, want)
		}
	}
}
