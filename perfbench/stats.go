package main

import (
	"math"
	"sort"
	"strconv"

	"repro/internal/fault"
)

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile of sorted samples
// and how many samples lie beyond it.
func percentile(sorted []float64, p float64) (value float64, beyond int) {
	n := len(sorted)
	rank := int(math.Ceil(p*float64(n)/100 - 1e-9)) // tolerate float error in p*n
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1], n - rank
}

// tailPercentiles are the candidates for a reported tail, highest first.
var tailPercentiles = []float64{99, 95, 90, 75, 50}

// minBeyond is how many samples must lie beyond a percentile for it to be
// reported.
const minBeyond = 10

// tail returns the highest of tailPercentiles that has at least
// minBeyond samples beyond it, with its name ("p99", "p95", ...). With
// too few samples for any candidate it returns the maximum, named "max".
func tail(samples []float64) (name string, value float64) {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	for _, p := range tailPercentiles {
		if v, beyond := percentile(s, p); beyond >= minBeyond {
			return "p" + strconv.FormatFloat(p, 'g', -1, 64), v
		}
	}
	if len(s) == 0 {
		return "max", 0
	}
	return "max", s[len(s)-1]
}

// liveLaneCycles measures the useful work of a pass plan from outside the
// simulator. A pass allocates 64*Width lanes from its start cycle to its
// end: the cycle after its last detection when every fault it carries is
// detected, else the golden run's last cycle. A fault's lane is live from
// the pass start through its detection cycle, or to the pass end when it
// escapes; empty lanes are never live. detectedAt is indexed like the
// fault list the plan was built from.
func liveLaneCycles(plan []fault.PassGroup, detectedAt []int32, cycles int) (live, alloc float64) {
	for _, p := range plan {
		end := int32(cycles)
		all := len(p.Idxs) > 0
		last := int32(-1)
		for _, i := range p.Idxs {
			d := detectedAt[i]
			if d < 0 {
				all = false
			} else if d > last {
				last = d
			}
		}
		if all {
			end = last + 1
		}
		length := float64(max(end-p.Start, 0))
		alloc += 64 * float64(p.Width) * length
		for _, i := range p.Idxs {
			if d := detectedAt[i]; d >= 0 {
				live += float64(max(d-p.Start+1, 0))
			} else {
				live += length
			}
		}
	}
	return live, alloc
}
