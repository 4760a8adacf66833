package serve

import (
	"bufio"
	"fmt"
	"net"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/asm"
	"repro/internal/cache"
	"repro/internal/fault"
	"repro/internal/gate"
	"repro/internal/plasma"
	"repro/internal/shard"
	"repro/internal/synth"
)

// Config parameterizes a grading server. The zero value is usable: native
// library, event engine, default checkpoint interval, cost-model lane
// widths, no disk cache, GOMAXPROCS warm graders.
type Config struct {
	// CPU, when non-nil, is an already-synthesized core to serve (its Lib
	// names the library); otherwise Lib is synthesized via the cache.
	CPU *plasma.CPU
	// Lib is the technology library to synthesize (nil = synth.NativeLib).
	Lib synth.Library
	// Cache, when non-nil, backs synthesis and golden capture with the
	// content-addressed disk cache, so a server restart pays decode, not
	// recomputation.
	Cache *cache.Cache
	// Engine is the simulation engine for every grade.
	Engine fault.Engine
	// LaneWords is the default per-pass lane-width cap (0 = adaptive).
	LaneWords int
	// CheckpointK is the golden-trace checkpoint interval (0 = default).
	CheckpointK int
	// Pool is the number of warm graders, i.e. the number of requests
	// simulated concurrently (0 = GOMAXPROCS). Requests beyond it queue.
	Pool int
	// Hosts arms distributed delegation: a request whose sampled fault
	// list has at least DistMinFaults entries is graded across these
	// remote worker hosts (shard.GradeDist) instead of the local warm
	// pool — the daemon turns into the cluster's coordinator. Results
	// stay bit-identical either way, so the threshold is pure policy.
	Hosts []shard.HostSpec
	// DistMinFaults is the smallest fault-list length worth delegating
	// (0 = delegate everything when Hosts is set): small grades are
	// usually cheaper on the warm local pool than a round of remote
	// dispatches.
	DistMinFaults int
	// DistCalibrate derives missing host weights from a per-host
	// calibration kernel on every delegated grade (explicit "=WEIGHT"
	// specs avoid the extra round trip).
	DistCalibrate bool
}

// graderSlot pairs a warm grader with the result buffers it fills; slots
// circulate through a channel so each is used by one request at a time.
type graderSlot struct {
	w   *fault.Warm
	res fault.Result
	// Warm's reuse counters are cumulative; per-grade deltas feed Stats.
	prevCold, prevWarm int64
}

// goldenEntry memoizes one captured golden trace. The program image is
// kept for exact-match verification (the map key is a non-cryptographic
// summary); once guards the single capture all concurrent first
// requesters share.
type goldenEntry struct {
	origin uint32
	words  []uint32
	cycles int

	once sync.Once
	g    *plasma.Golden
	err  error
}

// goldenKey summarizes a (program, cycles) pair for map lookup; matches
// verify the full image, so a summary collision costs a chain walk, never
// a wrong golden.
type goldenKey struct {
	origin uint32
	n      int
	sum    uint64
	cycles int
}

// planEntry memoizes one (golden, fault list, sampling, lane cap) pass
// plan: the sampled fault list in grading order, its content hash, the
// PlanPasses output and its skipped-fault count.
type planEntry struct {
	once    sync.Once
	faults  []fault.Fault
	hash    string
	plan    []fault.PassGroup
	skipped int64
	err     error
}

type planKey struct {
	golden    *goldenEntry
	faults    string // fault.UniverseHash of the request list ("" = server universe)
	sample    int
	seed      int64
	laneWords int
}

// Server is the warm-state grading service: immutable shared state (core,
// universe, memoized goldens and plans) plus a pool of warm graders.
// Construct with NewServer; Grade is safe for concurrent use.
type Server struct {
	cpu          *plasma.CPU
	disk         *cache.Cache
	engine       fault.Engine
	laneWords    int
	checkpointK  int
	libName      string
	netlistHash  string
	universe     []fault.Fault
	universeHash string

	hosts         []shard.HostSpec
	distMinFaults int
	distCalibrate bool
	distCache     *cache.Cache

	pool chan *graderSlot

	mu      sync.Mutex
	goldens map[goldenKey][]*goldenEntry
	plans   map[planKey]*planEntry

	stats serverCounters

	connMu  sync.Mutex
	ln      net.Listener
	conns   map[net.Conn]struct{}
	closing atomic.Bool
	wg      sync.WaitGroup
}

// NewServer builds the shared immutable state once: synthesizes (or
// cache-loads) the core, enumerates and hashes the collapsed fault
// universe, and arms the warm grader pool.
func NewServer(cfg Config) (*Server, error) {
	cpu := cfg.CPU
	lib := cfg.Lib
	if cpu != nil {
		lib = cpu.Lib
	} else {
		if lib == nil {
			lib = synth.NativeLib{}
		}
		var err error
		cpu, err = cfg.Cache.BuildCPU(lib)
		if err != nil {
			return nil, err
		}
	}
	nh, err := cache.NetlistHash(cpu.Netlist)
	if err != nil {
		return nil, err
	}
	universe := fault.Universe(cpu.Netlist)
	k := cfg.CheckpointK
	if k <= 0 {
		k = plasma.DefaultCheckpointK
	}
	pool := cfg.Pool
	if pool <= 0 {
		pool = runtime.GOMAXPROCS(0)
	}
	libName := ""
	if lib != nil {
		libName = lib.Name()
	}
	// Delegation replicates artifacts from a coordinator-side cache; a
	// daemon without a disk cache gets a private one so each content
	// hash still ships to each worker only once over the server's life.
	distCache := cfg.Cache
	if len(cfg.Hosts) > 0 && distCache == nil {
		dir, err := os.MkdirTemp("", "sbstd-dist-")
		if err != nil {
			return nil, err
		}
		if distCache, err = cache.Open(dir); err != nil {
			return nil, err
		}
	}
	s := &Server{
		cpu:           cpu,
		disk:          cfg.Cache,
		hosts:         cfg.Hosts,
		distMinFaults: cfg.DistMinFaults,
		distCalibrate: cfg.DistCalibrate,
		distCache:     distCache,
		engine:        cfg.Engine,
		laneWords:     cfg.LaneWords,
		checkpointK:   k,
		libName:       libName,
		netlistHash:   nh,
		universe:      universe,
		universeHash:  fault.UniverseHash(universe),
		pool:          make(chan *graderSlot, pool),
		goldens:       make(map[goldenKey][]*goldenEntry),
		plans:         make(map[planKey]*planEntry),
		conns:         make(map[net.Conn]struct{}),
	}
	for i := 0; i < pool; i++ {
		s.pool <- &graderSlot{w: fault.NewWarm(cpu, cfg.Engine)}
	}
	return s, nil
}

// Info describes the server's immutable shared state (the per-connection
// handshake frame).
func (s *Server) Info() Info {
	return Info{
		Lib:          s.libName,
		NetlistHash:  s.netlistHash,
		UniverseHash: s.universeHash,
		FaultCount:   len(s.universe),
		Engine:       s.engine,
		CheckpointK:  s.checkpointK,
		LaneWords:    s.laneWords,
		SIMD:         gate.SIMDKernelName(),
	}
}

// progSum is the FNV-1a summary of a program image for golden map keys.
func progSum(origin uint32, words []uint32) uint64 {
	h := uint64(14695981039346656037)
	mix := func(v uint32) {
		for i := 0; i < 4; i++ {
			h = (h ^ uint64(v&0xFF)) * 1099511628211
			v >>= 8
		}
	}
	mix(origin)
	for _, w := range words {
		mix(w)
	}
	return h
}

// golden returns the memoized golden trace for a request's program,
// capturing it (through the disk cache when armed) exactly once per
// distinct (program, cycles) pair regardless of how many requests race.
func (s *Server) golden(req *Request) *goldenEntry {
	key := goldenKey{
		origin: req.ProgOrigin,
		n:      len(req.ProgWords),
		sum:    progSum(req.ProgOrigin, req.ProgWords),
		cycles: req.Cycles,
	}
	s.mu.Lock()
	var e *goldenEntry
	for _, c := range s.goldens[key] {
		if c.origin == req.ProgOrigin && c.cycles == req.Cycles && sliceEq(c.words, req.ProgWords) {
			e = c
			break
		}
	}
	if e == nil {
		e = &goldenEntry{
			origin: req.ProgOrigin,
			words:  append([]uint32(nil), req.ProgWords...),
			cycles: req.Cycles,
		}
		s.goldens[key] = append(s.goldens[key], e)
	}
	s.mu.Unlock()
	captured := false
	e.once.Do(func() {
		captured = true
		prog := &asm.Program{Origin: e.origin, Words: e.words}
		e.g, e.err = s.disk.CaptureGoldenK(s.cpu, prog, e.cycles, s.checkpointK)
	})
	if captured {
		s.stats.goldenCaptures.Add(1)
	} else {
		s.stats.goldenHits.Add(1)
	}
	return e
}

func sliceEq(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// plan returns the memoized sampled fault list and pass plan for a
// (golden, fault list, sampling, lane cap) tuple. faultsHash is "" for
// the server universe and fault.UniverseHash(reqFaults) otherwise; the
// hash is the content address, so equal-hash lists plan identically.
func (s *Server) plan(ge *goldenEntry, reqFaults []fault.Fault, faultsHash string, req *Request) *planEntry {
	lanes := req.LaneWords
	if lanes == 0 {
		lanes = s.laneWords
	}
	key := planKey{golden: ge, faults: faultsHash, sample: req.Sample, seed: req.Seed, laneWords: lanes}
	s.mu.Lock()
	e := s.plans[key]
	if e == nil {
		e = &planEntry{}
		s.plans[key] = e
	}
	s.mu.Unlock()
	built := false
	e.once.Do(func() {
		built = true
		faults := reqFaults
		if req.Sample > 0 {
			faults = fault.SampleFaults(faults, req.Sample, req.Seed)
		}
		e.faults = faults
		e.hash = fault.UniverseHash(faults)
		e.plan, e.skipped, e.err = fault.PlanPasses(s.cpu.Netlist, ge.g, faults, s.engine, lanes)
	})
	if built {
		s.stats.planBuilds.Add(1)
	} else {
		s.stats.planHits.Add(1)
	}
	return e
}

// maxRequestCycles bounds a request's golden capture length, ~150x the
// Table 5 A+B program, so one request cannot make the server capture and
// memoize an unbounded trace.
const maxRequestCycles = 1 << 20

// Grade serves one request into resp. It is the steady-state hot path:
// with the golden and plan already memoized, the cost is one warm fault
// simulation — no synthesis, capture, planning or simulator construction,
// and no allocation beyond what the simulator itself does (asserted by
// TestGradeAllocBudget). resp's outcome slices are reused across calls.
//
// A request's fault list (when non-nil) and program words are retained in
// the memo tables; callers must not mutate them afterwards. Errors are
// returned to the caller and also counted; the server stays healthy.
func (s *Server) Grade(req *Request, resp *Response) error {
	start := time.Now()
	s.stats.requests.Add(1)
	err := s.grade(req, resp)
	if err != nil {
		s.stats.errors.Add(1)
		resp.DetectedAt = resp.DetectedAt[:0]
		resp.SignatureGroups = resp.SignatureGroups[:0]
		resp.Stats = fault.SimStats{}
		resp.UniverseHash = ""
		resp.Cycles = 0
	}
	s.stats.latencyNs.Add(time.Since(start).Nanoseconds())
	return err
}

func (s *Server) grade(req *Request, resp *Response) error {
	// Validate everything the memos key on before touching them: a
	// request that failed inside s.golden or s.plan would leave an entry
	// holding its error, and entries are never evicted.
	if req.Cycles <= 0 || req.Cycles > maxRequestCycles {
		return fmt.Errorf("serve: request wants %d cycles; want 1..%d", req.Cycles, maxRequestCycles)
	}
	if l := req.LaneWords; l < 0 || l > gate.MaxLaneWords || l&(l-1) != 0 {
		return fmt.Errorf("serve: request LaneWords must be 0 or a power of two in [1,%d]; got %d", gate.MaxLaneWords, l)
	}
	if len(req.ProgWords) == 0 {
		return fmt.Errorf("serve: request carries no program")
	}
	ge := s.golden(req)
	if ge.err != nil {
		return ge.err
	}
	reqFaults, faultsHash := req.Faults, ""
	if reqFaults == nil {
		reqFaults = s.universe
	} else {
		faultsHash = fault.UniverseHash(reqFaults)
	}
	pe := s.plan(ge, reqFaults, faultsHash, req)
	if pe.err != nil {
		return pe.err
	}
	if len(s.hosts) > 0 && len(pe.faults) >= s.distMinFaults {
		return s.gradeDist(ge, pe, req, resp)
	}

	slot := <-s.pool
	// The result borrows resp's outcome buffers, so the grade writes its
	// outcomes in place; they are handed back (possibly reallocated larger)
	// below, leaving the slot's result empty for the next request.
	res := &slot.res
	res.DetectedAt, res.SignatureGroups = resp.DetectedAt, resp.SignatureGroups
	fault.GrowResult(res, pe.faults)
	err := slot.w.Grade(ge.g, pe.faults, pe.plan, res)
	res.Stats.SkippedFaults += pe.skipped
	resp.DetectedAt, resp.SignatureGroups = res.DetectedAt, res.SignatureGroups
	resp.Cycles = res.Cycles
	resp.Stats = res.Stats
	resp.UniverseHash = pe.hash
	res.DetectedAt, res.SignatureGroups, res.Faults = nil, nil, nil
	s.stats.coldSims.Add(slot.w.ColdSims - slot.prevCold)
	s.stats.warmGrades.Add(slot.w.WarmGrades - slot.prevWarm)
	slot.prevCold, slot.prevWarm = slot.w.ColdSims, slot.w.WarmGrades
	s.pool <- slot
	return err
}

// gradeDist serves one oversized request across the configured remote
// hosts. pe.faults is already sampled (the plan memo did it), so the
// distributed options must not sample again; the per-fault outcomes and
// the universe hash are bit-identical to the local warm-pool path.
func (s *Server) gradeDist(ge *goldenEntry, pe *planEntry, req *Request, resp *Response) error {
	lanes := req.LaneWords
	if lanes == 0 {
		lanes = s.laneWords
	}
	res, dstats, err := shard.GradeDist(s.cpu, ge.g, pe.faults, shard.DistOptions{
		Hosts:     s.hosts,
		Engine:    s.engine,
		LaneWords: lanes,
		Cache:     s.distCache,
		Calibrate: s.distCalibrate,
	})
	if err != nil {
		return err
	}
	s.stats.distGrades.Add(1)
	if dstats != nil {
		s.stats.distShipBytes.Add(dstats.BytesShipped)
		s.stats.distShipNs.Add(dstats.ShipNs)
		s.stats.distRedispatched.Add(int64(dstats.Redispatched))
	}
	resp.DetectedAt = append(resp.DetectedAt[:0], res.DetectedAt...)
	resp.SignatureGroups = append(resp.SignatureGroups[:0], res.SignatureGroups...)
	resp.Cycles = res.Cycles
	resp.Stats = res.Stats
	resp.UniverseHash = pe.hash
	return nil
}

// Serve accepts connections on ln until Shutdown closes it. Each
// connection gets the Info handshake frame, then request/response frames
// in order; grading concurrency across connections is bounded by the warm
// grader pool. A Server may Serve again after a completed Shutdown (the
// warm state carries over); one Serve at a time.
func (s *Server) Serve(ln net.Listener) error {
	s.connMu.Lock()
	s.ln = ln
	s.closing.Store(false)
	s.connMu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if s.closing.Load() {
				return nil
			}
			return err
		}
		s.connMu.Lock()
		if s.closing.Load() {
			s.connMu.Unlock()
			conn.Close()
			continue
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.connMu.Unlock()
		go s.handle(conn)
	}
}

func (s *Server) handle(conn net.Conn) {
	defer func() {
		conn.Close()
		s.connMu.Lock()
		delete(s.conns, conn)
		s.connMu.Unlock()
		s.wg.Done()
	}()
	bw := bufio.NewWriter(conn)
	enc := shard.NewEncoder(bw)
	dec := shard.NewDecoder(bufio.NewReader(conn))
	info := s.Info()
	if enc.WriteFrame(&info) != nil || bw.Flush() != nil {
		return
	}
	var resp Response
	var req Request
	for {
		// Reset per iteration rather than reuse: gob omits zero-valued
		// fields, so a stale Sample or Faults list from the previous
		// request would silently survive into this one. Only the
		// always-transmitted ProgWords buffer is worth carrying over.
		req = Request{ProgWords: req.ProgWords[:0]}
		if err := dec.ReadFrame(&req); err != nil {
			return // client done (EOF), gone, or shutdown deadline
		}
		resp.Seq = req.Seq
		resp.Err = ""
		if err := s.Grade(&req, &resp); err != nil {
			resp.Err = err.Error()
		}
		if enc.WriteFrame(&resp) != nil || bw.Flush() != nil {
			return
		}
	}
}

// Shutdown stops accepting connections and drains in-flight work: each
// connection finishes (and gets the response for) the request it is
// grading, then closes at its next read. Connections still open after the
// drain deadline are force-closed and an error reports how many. Safe to
// call from a signal handler goroutine while Serve runs.
func (s *Server) Shutdown(drain time.Duration) error {
	s.closing.Store(true)
	s.connMu.Lock()
	if s.ln != nil {
		s.ln.Close()
	}
	// A past read deadline unblocks idle connections immediately but lets
	// a connection mid-grade finish and write its response: the deadline
	// only fires at the handler's next request read.
	past := time.Now()
	for c := range s.conns {
		c.SetReadDeadline(past)
	}
	s.connMu.Unlock()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-time.After(drain):
	}
	s.connMu.Lock()
	forced := len(s.conns)
	for c := range s.conns {
		c.Close()
	}
	s.connMu.Unlock()
	<-done
	return fmt.Errorf("serve: drain deadline exceeded; force-closed %d connections", forced)
}
