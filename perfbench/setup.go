package main

import (
	"runtime"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/plasma"
	"repro/internal/synth"
)

// setupRepeats is how many times a run sets up from scratch; setup_s is
// the median.
const setupRepeats = 9

// env is the grading state every workload starts from: the synthesized
// core, its collapsed fault universe, and the self-test program and golden
// trace of each requested phase.
type env struct {
	cpu     *plasma.CPU
	faults  []fault.Fault
	tests   map[core.PhaseID]*core.SelfTest
	goldens map[core.PhaseID]*plasma.Golden
}

// buildEnv synthesizes the base Plasma core, enumerates its fault
// universe, generates the self-test program of each phase in gen and
// captures the golden trace of each phase in capture (a subset of gen).
func buildEnv(tr *tracer, parent int, gen, capture []core.PhaseID) (*env, error) {
	e := &env{tests: make(map[core.PhaseID]*core.SelfTest), goldens: make(map[core.PhaseID]*plasma.Golden)}
	id := tr.begin("plasma.build", parent)
	cpu, err := plasma.Build(synth.NativeLib{})
	tr.end(id)
	if err != nil {
		return nil, err
	}
	e.cpu = cpu
	id = tr.begin("fault.universe", parent)
	e.faults = fault.Universe(cpu.Netlist)
	tr.end(id)
	id = tr.begin("core.selftest", parent)
	comps := core.ClassifyNetlist(cpu.Netlist)
	for _, ph := range gen {
		st, err := core.GenerateSelfTest(comps, ph)
		if err != nil {
			tr.end(id)
			return nil, err
		}
		e.tests[ph] = st
	}
	tr.end(id)
	for _, ph := range capture {
		st := e.tests[ph]
		id = tr.begin("plasma.capture", parent)
		g, err := plasma.CaptureGolden(cpu, st.Program, st.GateCycles())
		tr.end(id)
		if err != nil {
			return nil, err
		}
		e.goldens[ph] = g
	}
	return e, nil
}

// repeatSetup runs setup from scratch setupRepeats times (once when
// traced: setup_s is not reported then) and returns the last result with
// the median steal-corrected wall time in seconds. release, when not nil, is called on
// every discarded result; a collection follows, outside the timed part,
// so that the extra repetitions leave no garbage to raise max_rss_mb.
func repeatSetup[T any](tr *tracer, parent int, setup func(tr *tracer, parent int) (T, error), release func(T)) (T, float64, error) {
	n := setupRepeats
	if tr != nil {
		n = 1
	}
	var last T
	var times []float64
	for i := 0; i < n; i++ {
		id := tr.begin("bench.setup", parent)
		start := now()
		v, err := setup(tr, id)
		times = append(times, unstolen(start, now()))
		tr.end(id)
		if err != nil {
			return last, 0, err
		}
		if i < n-1 {
			if release != nil {
				release(v)
			}
			runtime.GC()
		}
		last = v
	}
	return last, median(times), nil
}
