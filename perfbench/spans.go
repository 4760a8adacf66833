package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call. Name is "<layer>.<operation>"; Parent is the id of the span
// that caused it (0 for a root); Req groups the spans of one genloop
// request (0 elsewhere). Start and End are nanoseconds since the tracer
// was created.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Req    int64  `json:"req,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(name string, parent int) int { return t.beginReq(name, parent, 0) }

// beginReq opens a span that belongs to request req.
func (t *tracer) beginReq(name string, parent int, req int64) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Req: req, Start: now, End: -1})
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// named returns copies of the closed spans with the given name.
func (t *tracer) named(name string) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Name == name && s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// spanCost measures the wall time of one begin/end pair on a scratch
// tracer, in seconds.
func spanCost() float64 {
	t := newTracer()
	const n = 100000
	start := time.Now()
	for i := 0; i < n; i++ {
		t.end(t.beginReq("bench.calibrate", 0, int64(i)))
	}
	return time.Since(start).Seconds() / n
}

// layerSelf returns each layer's self time in seconds, keyed by the span
// name's prefix before the first dot. A root span's self time is the
// time no other span covers; it goes to the key "uncovered", not to the
// root's layer.
func (t *tracer) layerSelf() map[string]float64 {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	return layerSelf(spans)
}

func layerSelf(spans []span) map[string]float64 {
	self := selfTimes(spans)
	out := make(map[string]float64)
	for i, s := range spans {
		layer, _, _ := strings.Cut(s.Name, ".")
		if s.Parent == 0 {
			layer = "uncovered"
		}
		out[layer] += self[i] / 1e9
	}
	return out
}

// selfTimes attributes wall time to spans: each instant goes to the
// innermost spans open at that instant (open spans with no open child),
// split equally when several are open at once, as the concurrent passes
// of a two-worker grade are. Without concurrency this is the usual self
// time, a span's duration minus what its children cover; with it, the
// self times of all spans still add up to the wall time the spans cover.
// Unclosed spans get nothing. The result is in nanoseconds, indexed like
// spans.
func selfTimes(spans []span) []float64 {
	self := make([]float64, len(spans))
	var cuts []int64
	for _, s := range spans {
		if s.End >= s.Start {
			cuts = append(cuts, s.Start, s.End)
		}
	}
	sort.Slice(cuts, func(a, b int) bool { return cuts[a] < cuts[b] })
	hasOpenChild := make(map[int]bool)
	var leaves []int
	for k := 1; k < len(cuts); k++ {
		lo, hi := cuts[k-1], cuts[k]
		if hi == lo {
			continue
		}
		clear(hasOpenChild)
		leaves = leaves[:0]
		for _, s := range spans {
			if s.Start <= lo && s.End >= hi && s.Parent != 0 {
				hasOpenChild[s.Parent] = true
			}
		}
		for i, s := range spans {
			if s.Start <= lo && s.End >= hi && !hasOpenChild[s.ID] {
				leaves = append(leaves, i)
			}
		}
		for _, i := range leaves {
			self[i] += float64(hi-lo) / float64(len(leaves))
		}
	}
	return self
}

// write saves the spans as one JSON object per line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
