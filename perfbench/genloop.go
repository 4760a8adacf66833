package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"net"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/plasma"
	"repro/internal/serve"
)

const (
	// genClients closed-loop clients share a server with genPool warm
	// graders.
	genClients = 2
	genPool    = 2
	// A run sends max(genMinRequests, seconds*genRequestsPerSecond)
	// requests, a count fixed by the command line alone. The rate is about
	// what the reference box sustains; the floor leaves ten samples beyond
	// the p99.
	genMinRequests       = 1000
	genRequestsPerSecond = 15
	// checkEvery selects the fixed subset of requests (ids divisible by
	// it) re-graded with fault.Simulate after the timed loop.
	checkEvery = 25
	// The request loop is cut into genWindows windows of equal numbers of
	// completed requests. programs_per_s is the median of their completion
	// rates, so that a burst of load from outside the benchmark moves it
	// only if it lasts half the loop.
	genWindows = 10
)

// genSetup is a running grading server with connected clients and the
// generated request stream.
type genSetup struct {
	e         *env
	srv       *serve.Server
	serveDone chan error
	clients   []*serve.Client
	gen       *generator
	reqs      []genRequest
}

// startGenloop builds the core, generates the request stream, starts a
// loopback server and dials the clients.
func startGenloop(tr *tracer, parent int, seed int64, n int) (*genSetup, error) {
	e, err := buildEnv(tr, parent, []core.PhaseID{core.PhaseB}, nil)
	if err != nil {
		return nil, err
	}
	s := &genSetup{e: e}
	id := tr.begin("core.generate", parent)
	s.gen, err = newGenerator(seed, e.tests[core.PhaseB].Routines)
	if err != nil {
		tr.end(id)
		return nil, err
	}
	for len(s.reqs) < n {
		r, err := s.gen.next()
		if err != nil {
			tr.end(id)
			return nil, err
		}
		s.reqs = append(s.reqs, r)
	}
	tr.end(id)
	id = tr.begin("serve.start", parent)
	defer tr.end(id)
	s.srv, err = serve.NewServer(serve.Config{CPU: e.cpu, Pool: genPool})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s.serveDone = make(chan error, 1)
	go func() { s.serveDone <- s.srv.Serve(ln) }()
	for i := 0; i < genClients; i++ {
		c, err := serve.Dial(ln.Addr().String())
		if err != nil {
			s.close()
			return nil, err
		}
		s.clients = append(s.clients, c)
	}
	return s, nil
}

// close disconnects the clients, shuts the server down and waits for it.
func (s *genSetup) close() {
	for _, c := range s.clients {
		c.Close()
	}
	_ = s.srv.Shutdown(10 * time.Second)
	<-s.serveDone
}

// genReply is what the benchmark keeps of one response.
type genReply struct {
	err      string
	ms       float64
	window   int // the window of the request loop it completed in
	digest   uint64
	resp     *serve.Response // kept for the re-graded subset only
	stats    fault.SimStats
	shapeErr bool
}

// runGenloop drives the daemon traffic: genClients closed-loop clients
// send the seeded request stream to an in-process server over loopback
// TCP, each waiting for its reply before sending its next request.
func runGenloop(cfg config, tr *tracer) (*outcome, error) {
	root := tr.begin("bench.genloop", 0)
	defer tr.end(root)
	n := max(genMinRequests, cfg.seconds*genRequestsPerSecond)
	n = (n + genWindows - 1) / genWindows * genWindows
	per := n / genWindows
	s, setupS, err := repeatSetup(tr, root, func(tr *tracer, p int) (*genSetup, error) {
		return startGenloop(tr, p, cfg.seed, n)
	}, (*genSetup).close)
	if err != nil {
		return nil, err
	}
	defer s.close()

	var prof bytes.Buffer
	if cfg.trace {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, err
		}
	}
	replies := make([]genReply, n)
	batch := tr.begin("bench.requests", root)
	var next, completed atomic.Int64
	var wg sync.WaitGroup
	// stamps[k] is read when the k*per-th request completes.
	stamps := make([]stamp, genWindows+1)
	stamps[0] = now()
	for _, c := range s.clients {
		wg.Add(1)
		go func(c *serve.Client) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				r := s.reqs[i]
				p := &s.gen.progs[r.prog]
				req := serve.Request{ProgOrigin: p.origin, ProgWords: p.words, Cycles: p.cycles, Sample: r.sample, Seed: r.seed}
				var resp serve.Response
				sid := tr.beginReq("serve.request", batch, r.id)
				t0 := time.Now()
				err := c.Do(&req, &resp)
				replies[i].ms = float64(time.Since(t0).Nanoseconds()) / 1e6
				d := int(completed.Add(1))
				replies[i].window = (d - 1) / per
				if d%per == 0 {
					stamps[d/per] = now()
				}
				tr.end(sid)
				replies[i].record(r, &resp, err)
			}
		}(c)
	}
	wg.Wait()
	tr.end(batch)
	if cfg.trace {
		pprof.StopCPUProfile()
	}
	st := s.srv.Stats()

	o := &outcome{attempted: n}
	checkID := tr.begin("bench.check", root)
	live, alloc, err := checkGenloop(tr, checkID, s, replies, o)
	tr.end(checkID)
	if err != nil {
		return nil, err
	}
	rates, stretch := windowRates(stamps, per)
	lat := make([]float64, n)
	var sum fault.SimStats
	for i := range replies {
		lat[i] = replies[i].ms / stretch[replies[i].window]
		sum.Add(&replies[i].stats)
	}
	counts := map[string]int{}
	for _, r := range s.reqs {
		counts[r.kind]++
	}
	tailName, tailMs := tail(lat)
	o.note("genloop: %d requests from %d closed-loop clients (pool %d): %d repeat, %d resample, %d fresh; request_p99_ms is the %s of %d samples",
		n, genClients, genPool, counts["repeat"], counts["resample"], counts["fresh"], tailName, n)
	if !cfg.trace {
		o.set("setup_s", setupS, "s")
		first, last := stamps[0], stamps[genWindows]
		rate := median(rates)
		o.note("genloop: request loop %.3f s of wall time, %.3f s steal-corrected (%.3f s of vCPU time stolen); %.4f requests/s overall, %.4f/s median over %d windows of %d requests",
			wallSince(first, last), unstolen(first, last), stolen(first, last), float64(n)/wallSince(first, last), rate, genWindows, per)
		o.note("genloop: window rates %.2f", rates)
		o.set("grade_s", float64(n)/rate, "s")
		o.set("request_p50_ms", median(lat), "ms")
		o.set("request_p99_ms", tailMs, "ms")
		o.set("programs_per_s", rate, "1/s")
		return o, nil
	}

	if err := o.setGateShares(prof.Bytes()); err != nil {
		return nil, err
	}
	o.setLayer("plasma.build_s", sumSpans(tr, "plasma.build"))
	o.setLayer("core.selftest_s", sumSpans(tr, "core.selftest")+sumSpans(tr, "core.generate"))
	o.setLayer("fault.universe_s", sumSpans(tr, "fault.universe"))
	o.setLayer("plasma.capture_s", sumSpans(tr, "plasma.capture"))
	o.setLayer("fault.plan_s", sumSpans(tr, "fault.plan"))
	o.setLayer("fault.simulate_s", sumSpans(tr, "fault.simulate"))
	o.note("plasma.capture_s, fault.plan_s and fault.simulate_s time the same calls the server makes per miss, made by the benchmark when it re-grades the %d-request check subset",
		len(tr.named("fault.simulate")))
	o.setSimStats(&sum)
	o.setLayer("fault.live_lane_fraction", live/alloc)
	o.absent("genloop grades inside the server, where passes cannot be timed from outside",
		"fault.pass_s_max", "fault.pass_s_p50", "fault.parallel_efficiency")
	stored := 0.0
	seen := map[int]bool{}
	for i, r := range s.reqs {
		if !seen[r.prog] {
			seen[r.prog] = true
			stored += float64(replies[i].stats.GoldenStoredBytes)
		}
	}
	o.setLayer("plasma.golden_stored_bytes", stored)
	o.setLayer("serve.golden_hit_ratio", ratio(st.GoldenHits, st.GoldenHits+st.GoldenCaptures))
	o.setLayer("serve.plan_hit_ratio", ratio(st.PlanHits, st.PlanHits+st.PlanBuilds))
	o.setLayer("serve.warm_grade_ratio", ratio(st.WarmGrades, st.Requests))
	o.setLayer("serve.cold_sims", float64(st.ColdSims))
	serverMs := float64(st.LatencyNs) / 1e6 / float64(st.Requests)
	clientMs := 0.0
	for i := range replies {
		clientMs += replies[i].ms
	}
	clientMs /= float64(n)
	o.setLayer("serve.grade_ms_mean", serverMs)
	o.setLayer("serve.wire_ms_mean", clientMs-serverMs)
	perSpan := spanCost()
	o.setLayer("bench.trace_overhead_s", float64(n)*perSpan)
	o.note("bench.trace_overhead_s estimates span bookkeeping only (%d request spans at %.0f ns each); the CPU profiler's cost is not in it", n, perSpan*1e9)
	o.absent("genloop grades in-process, without shard", "shard.ship_bytes", "shard.ship_s", "shard.partition_s",
		"shard.merge_s", "shard.redispatched", "shard.host_queue_s", "shard.host_sim_s", "shard.host_imbalance",
		"shard.abandoned_drain_s")
	return o, nil
}

// windowRates returns, for each window of per requests between
// consecutive stamps, its steal-corrected completion rate and how far
// steal stretched it (wall over steal-corrected time, at least 1).
func windowRates(stamps []stamp, per int) (rates, stretch []float64) {
	for k := 1; k < len(stamps); k++ {
		t := unstolen(stamps[k-1], stamps[k])
		rates = append(rates, float64(per)/t)
		stretch = append(stretch, wallSince(stamps[k-1], stamps[k])/t)
	}
	return rates, stretch
}

// record keeps what the checks need of one reply.
func (g *genReply) record(r genRequest, resp *serve.Response, err error) {
	switch {
	case err != nil:
		g.err = err.Error()
		return
	case resp.Err != "":
		g.err = resp.Err
		return
	}
	g.stats = resp.Stats
	g.shapeErr = len(resp.DetectedAt) != r.sample || len(resp.SignatureGroups) != r.sample
	if g.shapeErr {
		return
	}
	h := fnv.New64a()
	for k, d := range resp.DetectedAt {
		h.Write([]byte{byte(d), byte(d >> 8), byte(d >> 16), byte(d >> 24), resp.SignatureGroups[k]})
	}
	g.digest = h.Sum64()
	if r.id%checkEvery == 0 {
		g.resp = resp
	}
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// checkGenloop counts failed requests into o: transport or server
// errors, replies of the wrong shape, exact repeats whose outcomes differ
// from the first reply to the same request, and replies in the fixed
// check subset that differ from an in-process fault.Simulate of the same
// program, sample and seed. The subset is re-graded by genPool
// goroutines, as the server grades. It returns the live and allocated
// lane-cycles of the subset's pass plans.
func checkGenloop(tr *tracer, parent int, s *genSetup, replies []genReply, o *outcome) (live, alloc float64, err error) {
	type key struct {
		prog, sample int
		seed         int64
	}
	fail := func(r genRequest, format string, args ...any) {
		o.failed++
		if o.failed <= 5 {
			o.note("CHECK FAILED: request %d (%s): %s", r.id, r.kind, fmt.Sprintf(format, args...))
		}
	}
	first := map[key]uint64{}
	var subset []int
	for i, r := range s.reqs {
		g := &replies[i]
		if g.err != "" {
			fail(r, "%s", g.err)
			continue
		}
		if g.shapeErr {
			fail(r, "reply does not cover the %d sampled faults", r.sample)
			continue
		}
		k := key{r.prog, r.sample, r.seed}
		if d, ok := first[k]; ok && d != g.digest {
			fail(r, "outcomes differ from the first reply to the same request")
			continue
		} else if !ok {
			first[k] = g.digest
		}
		if g.resp != nil {
			subset = append(subset, i)
		}
	}

	// regrade checks one reply of the subset; mismatch is its failure,
	// err a failure to grade at all.
	type regrade struct {
		mismatch    string
		live, alloc float64
		err         error
	}
	check := func(i int) (out regrade) {
		r, g := s.reqs[i], &replies[i]
		p := &s.gen.progs[r.prog]
		id := tr.begin("plasma.capture", parent)
		gold, err := plasma.CaptureGolden(s.e.cpu, &asm.Program{Origin: p.origin, Words: p.words}, p.cycles)
		tr.end(id)
		if err != nil {
			return regrade{err: err}
		}
		id = tr.begin("fault.simulate", parent)
		want, err := fault.Simulate(s.e.cpu, gold, s.e.faults, fault.Options{Sample: r.sample, Seed: r.seed, Workers: 1})
		tr.end(id)
		if err != nil {
			return regrade{err: err}
		}
		if err := sameOutcomes(want, g.resp.DetectedAt, g.resp.SignatureGroups); err != nil {
			return regrade{mismatch: fmt.Sprintf("differs from fault.Simulate: %v", err)}
		}
		if h := fault.UniverseHash(want.Faults); h != g.resp.UniverseHash || want.Cycles != g.resp.Cycles {
			return regrade{mismatch: fmt.Sprintf("graded universe %.12s/%d cycles, want %.12s/%d", g.resp.UniverseHash, g.resp.Cycles, h, want.Cycles)}
		}
		if tr != nil {
			id := tr.begin("fault.plan", parent)
			plan, _, err := fault.PlanPasses(s.e.cpu.Netlist, gold, want.Faults, fault.EngineEvent, 0)
			tr.end(id)
			if err != nil {
				return regrade{err: err}
			}
			out.live, out.alloc = liveLaneCycles(plan, want.DetectedAt, gold.Cycles)
		}
		return out
	}
	outs := make([]regrade, len(subset))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < genPool; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := int(next.Add(1) - 1); k < len(subset); k = int(next.Add(1) - 1) {
				outs[k] = check(subset[k])
			}
		}()
	}
	wg.Wait()
	for k, out := range outs {
		switch {
		case out.err != nil:
			return 0, 0, out.err
		case out.mismatch != "":
			fail(s.reqs[subset[k]], "%s", out.mismatch)
		}
		live += out.live
		alloc += out.alloc
	}
	return live, alloc, nil
}
