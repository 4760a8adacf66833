package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"

	"repro/internal/baseline"
	"repro/internal/core"
)

// The genloop request mix follows the fixed cycle kindCycle of eight
// requests: six fresh programs (golden and plan memo miss), one recent
// program with a new fault sample (golden hit, plan miss) and one exact
// repeat of a recent request (golden and plan hit). Shares: 3/4 fresh,
// 1/8 resample, 1/8 repeat.
//
// No recorded generator traffic exists to draw these from, so they are
// assumptions with a stated basis. A generator loop mostly sends
// candidates it has not sent before, as in the soak the roadmap plans
// ("a generator loop sending N distinct programs"). An iterative
// deterministic + pseudoexhaustive flow (the 2019 RISC test-generation
// paper) re-grades some kept candidates on another fault sample. Exact
// repeats are rarest: a duplicate submission, which is what the roadmap's
// parked "coalesce identical requests" item would serve. The window, the
// lag order and the routine-subset schedule below are assumptions too.
var kindCycle = [...]string{"fresh", "fresh", "fresh", "resample", "fresh", "fresh", "fresh", "repeat"}

const (
	// recentWindow is how many of the latest requests repeats and
	// resamples draw from, each at the next lag of lagOrder.
	recentWindow = 16
	// Fault samples are drawn uniformly from [minSample, maxSample].
	minSample = 32
	maxSample = 256
	// Fresh programs follow a fixed schedule: every routineEvery-th is a
	// subset of the Phase A/B component routines (while unused subsets of
	// at most routineMaxCycles cycles remain), the others pseudorandom
	// baseline programs with one seed-drawn LFSR seed and 1..maxRounds
	// rounds in turn (316, 615, 914 and 1213 cycles).
	routineEvery     = 8
	routineMaxCycles = 1500
	maxRounds        = 4
)

// lagOrder is the fixed cycle of look-back distances into the recent
// window. With kindCycle and the fresh-program schedule it fixes which
// program every request grades, so the simulated cycles of a run, and so
// its work, stay nearly the same from seed to seed; the seed chooses every
// program's content and every fault sample.
var lagOrder = [recentWindow]int{3, 11, 0, 7, 14, 5, 9, 1, 12, 6, 15, 2, 10, 4, 13, 8}

// candidate is one generated test program.
type candidate struct {
	kind   string // "baseline" or "routines"
	origin uint32
	words  []uint32
	cycles int
}

// genRequest is one generated grading request.
type genRequest struct {
	id     int64 // 1-based request id
	kind   string
	prog   int // index into generator.progs
	sample int
	seed   int64
}

// generator produces the seeded genloop request stream: the same seed
// always yields the same requests, programs included.
type generator struct {
	rng      *rand.Rand
	subsets  []candidate // short routine-subset programs, in seeded order
	progs    []candidate
	seen     map[uint64]bool
	recent   []genRequest
	picks    int // repeat and resample targets drawn so far
	nextID   int64
	baseline int // baseline programs generated so far
}

// newGenerator returns a generator drawing routine subsets from routines
// (the Phase A/B component routines, in test-priority order).
func newGenerator(seed int64, routines []core.Routine) (*generator, error) {
	g := &generator{rng: rand.New(rand.NewSource(seed)), seen: make(map[uint64]bool)}
	for mask := 1; mask < 1<<len(routines); mask++ {
		var subset []core.Routine
		for i, r := range routines {
			if mask&(1<<i) != 0 {
				subset = append(subset, r)
			}
		}
		st, err := core.BuildProgram(subset)
		if err != nil {
			return nil, fmt.Errorf("build routine subset: %w", err)
		}
		if st.GateCycles() <= routineMaxCycles {
			g.subsets = append(g.subsets, candidate{kind: "routines", origin: st.Program.Origin, words: st.Program.Words, cycles: st.GateCycles()})
		}
	}
	g.rng.Shuffle(len(g.subsets), func(i, j int) { g.subsets[i], g.subsets[j] = g.subsets[j], g.subsets[i] })
	return g, nil
}

// next returns the next request of the stream.
func (g *generator) next() (genRequest, error) {
	g.nextID++
	r := genRequest{id: g.nextID, kind: kindCycle[(g.nextID-1)%int64(len(kindCycle))]}
	switch r.kind {
	case "repeat":
		r = g.pick()
		r.id, r.kind = g.nextID, "repeat"
	case "resample":
		r.prog = g.pick().prog
		r.sample, r.seed = g.drawSample()
	default:
		p, err := g.fresh()
		if err != nil {
			return r, err
		}
		r.prog = len(g.progs)
		g.progs = append(g.progs, p)
		r.sample, r.seed = g.drawSample()
	}
	if len(g.recent) == recentWindow {
		copy(g.recent, g.recent[1:])
		g.recent = g.recent[:recentWindow-1]
	}
	g.recent = append(g.recent, r)
	return r, nil
}

// pick returns the recent request at the next lag of lagOrder (clamped
// to the window filled so far).
func (g *generator) pick() genRequest {
	lag := lagOrder[g.picks%recentWindow] % len(g.recent)
	g.picks++
	return g.recent[len(g.recent)-1-lag]
}

func (g *generator) drawSample() (int, int64) {
	return minSample + g.rng.Intn(maxSample-minSample+1), g.rng.Int63()
}

// fresh returns the next scheduled program, one not generated before.
func (g *generator) fresh() (candidate, error) {
	if len(g.progs)%routineEvery == routineEvery-1 && len(g.subsets) > 0 {
		c := g.subsets[0]
		g.subsets = g.subsets[1:]
		g.seen[c.identity()] = true
		return c, nil
	}
	for {
		cfg := baseline.DefaultConfig(1 + g.baseline%maxRounds)
		cfg.Seeds = []uint32{g.rng.Uint32() | 1}
		p, err := baseline.Generate(cfg)
		if err != nil {
			return candidate{}, fmt.Errorf("generate baseline program: %w", err)
		}
		c := candidate{kind: "baseline", origin: p.Program.Origin, words: p.Program.Words, cycles: p.GateCycles()}
		if id := c.identity(); !g.seen[id] {
			g.seen[id] = true
			g.baseline++
			return c, nil
		}
	}
}

// identity hashes a program image and its capture length.
func (c *candidate) identity() uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%d/", c.origin, c.cycles)
	for _, w := range c.words {
		h.Write([]byte{byte(w), byte(w >> 8), byte(w >> 16), byte(w >> 24)})
	}
	return h.Sum64()
}
