package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"runtime/pprof"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/gate"
	"repro/internal/plasma"
)

// table5Workers is the in-process grading concurrency (the box's nproc).
const table5Workers = 2

// table5Seconds is the nominal wall time of one Table-5 grade; a run does
// seconds/table5Seconds grades (at least one), a count fixed by the
// command line alone so that two builds always do the same work.
const table5Seconds = 15

// table5Phases are the graded programs: Phase A and Phase A+B.
var table5Phases = []core.PhaseID{core.PhaseA, core.PhaseB}

// table5File holds the reference Table 5, read from the repository root.
const table5File = "results_table5.txt"

// table5Row is one reference row: FC and MOFC for Phase A and Phase A+B,
// as printed (two decimals). The "Plasma" row has FC only.
type table5Row struct{ fc, mofc [2]string }

// readTable5 parses the component rows of the reference Table 5.
func readTable5(path string) (map[string]table5Row, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rows := make(map[string]table5Row)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		cols := strings.Split(sc.Text(), "|")
		if len(cols) < 3 {
			continue
		}
		name := strings.TrimSpace(cols[0])
		a, ab := strings.Fields(cols[1]), strings.Fields(cols[2])
		if name == "Component" || len(a) == 0 || len(ab) == 0 {
			continue
		}
		var r table5Row
		r.fc = [2]string{a[0], ab[0]}
		if len(a) > 1 && len(ab) > 1 {
			r.mofc = [2]string{a[1], ab[1]}
		}
		rows[name] = r
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if _, ok := rows["Plasma"]; !ok || len(rows) < 2 {
		return nil, fmt.Errorf("%s: no Table 5 rows found", path)
	}
	return rows, nil
}

// checkTable5 compares one phase's grade (col 0 = Phase A, 1 = Phase A+B)
// with the reference rows: weighted FC and MOFC per component and the
// overall weighted coverage, at the table's two decimals.
func checkTable5(want map[string]table5Row, n *gate.Netlist, res *fault.Result, col int) error {
	rep := fault.NewReport(n, res)
	seen := 0
	for _, c := range rep.Components {
		w, ok := want[c.Name]
		if !ok {
			return fmt.Errorf("component %s missing from %s", c.Name, table5File)
		}
		seen++
		if fc, mofc := fmt.Sprintf("%.2f", c.FC()), fmt.Sprintf("%.2f", c.MOFC); fc != w.fc[col] || mofc != w.mofc[col] {
			return fmt.Errorf("%s: FC %s MOFC %s, want %s %s", c.Name, fc, mofc, w.fc[col], w.mofc[col])
		}
	}
	if seen != len(want)-1 {
		return fmt.Errorf("graded %d components, reference has %d", seen, len(want)-1)
	}
	overall := fmt.Sprintf("%.2f", 100*float64(rep.Overall.DetW)/float64(rep.Overall.TotalW))
	if w := want["Plasma"].fc[col]; overall != w {
		return fmt.Errorf("overall FC %s, want %s", overall, w)
	}
	return nil
}

// runTable5 grades the Phase A and Phase A+B self-test programs over the
// full collapsed universe in-process, as the paper's Table 5 does.
func runTable5(cfg config, tr *tracer) (*outcome, error) {
	root := tr.begin("bench.table5", 0)
	defer tr.end(root)
	id := tr.begin("bench.read_reference", root)
	want, err := readTable5(table5File)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	e, setupS, err := repeatSetup(tr, root, func(tr *tracer, p int) (*env, error) {
		return buildEnv(tr, p, table5Phases, table5Phases)
	}, nil)
	if err != nil {
		return nil, err
	}
	if cfg.trace {
		return traceTable5(tr, root, e, want, cfg.out)
	}
	o := &outcome{}
	var grades, opMs []float64
	var wall, stolenS float64
	n := max(1, cfg.seconds/table5Seconds)
	for r := 0; r < n; r++ {
		var results [2]*fault.Result
		grade := 0.0
		for i, ph := range table5Phases {
			t0 := now()
			res, err := fault.Simulate(e.cpu, e.goldens[ph], e.faults, fault.Options{Workers: table5Workers})
			t1 := now()
			if err != nil {
				return nil, err
			}
			results[i] = res
			s := unstolen(t0, t1)
			opMs = append(opMs, 1000*s)
			grade += s
			wall += wallSince(t0, t1)
			stolenS += stolen(t0, t1)
		}
		grades = append(grades, grade)
		for i := range table5Phases {
			o.attempted++
			if err := checkTable5(want, e.cpu.Netlist, results[i], i); err != nil {
				o.failed++
				o.note("CHECK FAILED: %s grade: %v", table5Phases[i], err)
			}
		}
	}
	total := 0.0
	for _, g := range grades {
		total += g
	}
	tailName, tailMs := tail(opMs)
	o.note("table5: %d Table-5 grades, %d program grades; request_p99_ms is the %s of %d program grades", n, len(opMs), tailName, len(opMs))
	o.note("table5: grading took %.3f s of wall time, %.3f s steal-corrected (%.3f s of vCPU time stolen)", wall, total, stolenS)
	o.set("setup_s", setupS, "s")
	o.set("grade_s", median(grades), "s")
	o.set("request_p50_ms", median(opMs), "ms")
	o.set("request_p99_ms", tailMs, "ms")
	o.set("programs_per_s", float64(len(opMs))/total, "1/s")
	return o, nil
}

// traceTable5 is the traced Table-5 run. Each phase is graded once by
// fault.Simulate (the untraced reference), then its plan is replayed one
// PassGroup at a time on two fault.Warm graders: once bare, with no spans
// and no profile, and once with one span per pass under a CPU profile.
// Both replays must match the reference bit for bit; the difference of
// their wall times is the tracing overhead. Last, the Phase A program is
// graded once more across loopback hosts (gradeDist), for the shard
// layer; out holds that grade's scratch caches.
func traceTable5(tr *tracer, root int, e *env, want map[string]table5Row, out string) (*outcome, error) {
	o := &outcome{}
	var refStats fault.SimStats
	refs := make([]*fault.Result, len(table5Phases))
	for i, ph := range table5Phases {
		id := tr.begin("fault.simulate", root)
		res, err := fault.Simulate(e.cpu, e.goldens[ph], e.faults, fault.Options{Workers: table5Workers})
		tr.end(id)
		if err != nil {
			return nil, err
		}
		refs[i] = res
		refStats.Add(&res.Stats)
		o.attempted++
		id = tr.begin("bench.check", root)
		err = checkTable5(want, e.cpu.Netlist, res, i)
		tr.end(id)
		if err != nil {
			o.failed++
			o.note("CHECK FAILED: %s grade: %v", ph, err)
		}
	}

	plans := make([][]fault.PassGroup, len(table5Phases))
	for i, ph := range table5Phases {
		id := tr.begin("fault.plan", root)
		plan, _, err := fault.PlanPasses(e.cpu.Netlist, e.goldens[ph], e.faults, fault.EngineEvent, 0)
		tr.end(id)
		if err != nil {
			return nil, err
		}
		plans[i] = plan
	}
	// checkReplay counts a replay whose outcomes differ from the reference
	// as a failed operation.
	checkReplay := func(i int, how string, got *fault.Result) {
		id := tr.begin("bench.check", root)
		defer tr.end(id)
		o.attempted++
		if err := sameOutcomes(refs[i], got.DetectedAt, got.SignatureGroups); err != nil {
			o.failed++
			o.note("CHECK FAILED: %s %s per-pass replay differs from fault.Simulate: %v", table5Phases[i], how, err)
		}
	}
	for i, ph := range table5Phases {
		id := tr.begin("fault.replay_bare", root)
		got, err := replayPlan(nil, 0, e.cpu, e.goldens[ph], e.faults, plans[i])
		tr.end(id)
		if err != nil {
			return nil, err
		}
		checkReplay(i, "bare", got)
	}

	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, err
	}
	var live, alloc float64
	for i, ph := range table5Phases {
		got, err := replayPlan(tr, root, e.cpu, e.goldens[ph], e.faults, plans[i])
		if err != nil {
			pprof.StopCPUProfile()
			return nil, err
		}
		checkReplay(i, "traced", got)
		id := tr.begin("bench.check", root)
		l, a := liveLaneCycles(plans[i], refs[i].DetectedAt, e.goldens[ph].Cycles)
		tr.end(id)
		live += l
		alloc += a
	}
	pprof.StopCPUProfile()
	id := tr.begin("bench.profile", root)
	err := o.setGateShares(prof.Bytes())
	tr.end(id)
	if err != nil {
		return nil, err
	}

	untraced := sumSpans(tr, "fault.simulate")
	bare := sumSpans(tr, "fault.replay_bare")
	traced := sumSpans(tr, "fault.replay")
	var passS []float64
	for _, s := range tr.named("fault.pass") {
		passS = append(passS, float64(s.End-s.Start)/1e9)
	}
	passSum := 0.0
	passMax := 0.0
	for _, p := range passS {
		passSum += p
		passMax = max(passMax, p)
	}
	o.setLayer("plasma.build_s", sumSpans(tr, "plasma.build"))
	o.setLayer("core.selftest_s", sumSpans(tr, "core.selftest"))
	o.setLayer("fault.universe_s", sumSpans(tr, "fault.universe"))
	o.setLayer("plasma.capture_s", sumSpans(tr, "plasma.capture"))
	o.setLayer("fault.plan_s", sumSpans(tr, "fault.plan"))
	o.setLayer("fault.simulate_s", untraced)
	o.setSimStats(&refStats)
	o.setLayer("fault.live_lane_fraction", live/alloc)
	o.setLayer("fault.pass_s_max", passMax)
	o.setLayer("fault.pass_s_p50", median(passS))
	// The pass times come from the replay, the wall time from
	// fault.Simulate's own scheduling, so a worker that Simulate leaves
	// idle lowers the efficiency.
	o.setLayer("fault.parallel_efficiency", passSum/(table5Workers*untraced))
	o.setLayer("plasma.golden_stored_bytes", float64(e.goldens[core.PhaseA].StoredStateBytes()+e.goldens[core.PhaseB].StoredStateBytes()))
	o.setLayer("bench.trace_overhead_s", traced-bare)
	o.absent("table5 runs no grading server", "serve.golden_hit_ratio", "serve.plan_hit_ratio",
		"serve.warm_grade_ratio", "serve.cold_sims", "serve.grade_ms_mean", "serve.wire_ms_mean")
	if err := gradeDist(tr, root, e, refs[0], out, o); err != nil {
		return nil, err
	}
	o.note("%d passes replayed (sum %.3f s); fault.Simulate %.3f s; per-pass replay %.3f s bare, %.3f s traced and profiled (overhead %.3f s)",
		len(passS), passSum, untraced, bare, traced, traced-bare)
	return o, nil
}

// replayPlan grades a plan one PassGroup at a time on table5Workers warm
// graders pulling passes from a shared queue, recording one span per
// pass, and returns the merged outcomes.
func replayPlan(tr *tracer, parent int, cpu *plasma.CPU, g *plasma.Golden, faults []fault.Fault, plan []fault.PassGroup) (*fault.Result, error) {
	id := tr.begin("fault.replay", parent)
	defer tr.end(id)
	merged := &fault.Result{}
	fault.GrowResult(merged, faults)
	queue := make(chan int, len(plan))
	for i := range plan {
		queue <- i
	}
	close(queue)
	var mu sync.Mutex
	var wg sync.WaitGroup
	errs := make([]error, table5Workers)
	for w := 0; w < table5Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			warm := fault.NewWarm(cpu, fault.EngineEvent)
			res := &fault.Result{}
			for i := range queue {
				p := plan[i]
				fault.GrowResult(res, faults)
				pid := tr.begin("fault.pass", id)
				err := warm.Grade(g, faults, plan[i:i+1], res)
				tr.end(pid)
				if err != nil {
					errs[w] = err
					return
				}
				mu.Lock()
				for _, k := range p.Idxs {
					merged.DetectedAt[k] = res.DetectedAt[k]
					merged.SignatureGroups[k] = res.SignatureGroups[k]
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return merged, nil
}

// sameOutcomes reports the first fault whose outcome differs from ref.
func sameOutcomes(ref *fault.Result, detectedAt []int32, sigGroups []uint8) error {
	if len(detectedAt) != len(ref.DetectedAt) || len(sigGroups) != len(ref.SignatureGroups) {
		return fmt.Errorf("%d/%d outcomes, want %d", len(detectedAt), len(sigGroups), len(ref.DetectedAt))
	}
	for i := range ref.DetectedAt {
		if detectedAt[i] != ref.DetectedAt[i] || sigGroups[i] != ref.SignatureGroups[i] {
			return fmt.Errorf("fault %d: (%d, %d), want (%d, %d)", i,
				detectedAt[i], sigGroups[i], ref.DetectedAt[i], ref.SignatureGroups[i])
		}
	}
	return nil
}
