// Command perfbench is the repository's benchmark: it runs one named
// workload against the grader's public packages, checks every output for
// correctness, and prints the end-to-end metrics (untraced run) or the
// per-layer metrics (traced run). The last line of standard output is one
// JSON object:
//
//	{"correct": true, "attempted": 2, "failed": 0, "metrics": {...}}
//
// Usage (from the repository root, normally through run.sh, which builds
// this package first):
//
//	perfbench -workload table5|genloop -seed N -seconds S -trace 0|1 [-out DIR]
//
// See METRICS.md for what each workload and metric means.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"syscall"
	"time"
)

// metric is one reported figure with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is what every workload receives from the command line.
type config struct {
	seed    int64
	seconds int
	trace   bool
	out     string // directory for scratch caches and trace files
}

// outcome is what a workload hands back: the operations it attempted,
// those that failed (an output failing its check counts as failed), its
// metrics, and notes printed above the JSON line.
type outcome struct {
	attempted, failed int
	metrics           map[string]metric
	notes             []string
}

func (o *outcome) set(name string, v float64, unit string) {
	if o.metrics == nil {
		o.metrics = make(map[string]metric)
	}
	o.metrics[name] = metric{Value: v, Unit: unit}
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

var workloads = map[string]func(config, *tracer) (*outcome, error){
	"table5":  runTable5,
	"genloop": runGenloop,
}

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload to run: table5 or genloop")
	seed := flag.Int64("seed", 1, "seed for the workload's generated inputs")
	seconds := flag.Int("seconds", 15, "nominal measurement length; sets the fixed amount of work per run")
	trace := flag.Int("trace", 0, "1 runs the traced variant and reports per-layer metrics")
	out := flag.String("out", ".bench_build", "directory for scratch caches and trace files")
	flag.Parse()
	wl, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		flag.Usage()
		return 2
	}
	cfg := config{seed: *seed, seconds: *seconds, trace: *trace == 1, out: *out}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	start := time.Now()
	o, err := wl(cfg, tr)
	wall := time.Since(start)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	if cfg.trace {
		if err := finishTrace(tr, o, *name, cfg, wall); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
			return 1
		}
	} else {
		o.set("max_rss_mb", maxRSSMB(), "MiB")
	}
	return report(*name, o)
}

// maxUncovered is the largest share of the traced table5 wall time that
// may lie outside every layer span.
const maxUncovered = 0.05

// finishTrace adds each layer's self time and the span-coverage check to
// a traced outcome and writes the spans out.
func finishTrace(tr *tracer, o *outcome, name string, cfg config, wall time.Duration) error {
	self := tr.layerSelf()
	covered := 0.0
	for _, l := range []string{"plasma", "core", "fault", "serve", "shard", "bench"} {
		o.setLayer(l+".self_s", self[l])
		covered += self[l]
	}
	// What no layer span covers: the root span's own time plus anything
	// outside it.
	uncovered := max(0, wall.Seconds()-covered)
	o.setLayer("bench.uncovered_s", uncovered)
	if missing := missingLayers(o); len(missing) > 0 {
		return fmt.Errorf("per-layer metrics not reported: %v", missing)
	}
	share := uncovered / wall.Seconds()
	o.note("span coverage: layer self times sum to %.4f s of %.4f s traced wall; %.4f s (%.1f%%) is in no layer span",
		covered, wall.Seconds(), uncovered, 100*share)
	if name == "table5" && share > maxUncovered {
		o.failed++
		o.note("CHECK FAILED: on table5 at most %.0f%% of the traced wall time may lie outside the layer spans", 100*maxUncovered)
	}
	path := filepath.Join(cfg.out, "trace", fmt.Sprintf("%s-seed%d.json", name, cfg.seed))
	if err := tr.write(path); err != nil {
		return err
	}
	o.note("spans written to %s", path)
	return nil
}

// report prints the human-readable lines and the final JSON line.
func report(name string, o *outcome) int {
	for _, n := range o.notes {
		fmt.Println(n)
	}
	names := make([]string, 0, len(o.metrics))
	for k := range o.metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Printf("workload %s\n", name)
	for _, k := range names {
		m := o.metrics[k]
		fmt.Printf("  %-28s %14.6g %s\n", k, m.Value, m.Unit)
	}
	errRate := 0.0
	if o.attempted > 0 {
		errRate = float64(o.failed) / float64(o.attempted)
	}
	fmt.Printf("  %-28s %14.6g ratio (%d failed of %d attempted)\n", "error_rate", errRate, o.failed, o.attempted)
	line, err := json.Marshal(result{
		Correct:   o.failed == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   o.metrics,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// maxRSSMB is the process's peak resident set size so far, in MiB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
