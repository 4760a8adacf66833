package serve

import (
	"bufio"
	"fmt"
	"net"
	"os"
	"os/exec"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/asm"
	"repro/internal/cache"
	"repro/internal/fault"
	"repro/internal/plasma"
	"repro/internal/shard"
	"repro/internal/synth"
)

// TestMain doubles this test binary as the daemon under test: with
// SBST_SERVE_DAEMON set, the process runs RunDaemon (flags from the
// variable's value) instead of the test suite, so the signal-shutdown test
// exercises the real process lifecycle — flags, listener, SIGTERM, drain,
// stats flush — against a genuine subprocess.
func TestMain(m *testing.M) {
	if args := os.Getenv("SBST_SERVE_DAEMON"); args != "" {
		os.Exit(RunDaemon(strings.Fields(args), os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

var (
	cpuOnce sync.Once
	cpuVal  *plasma.CPU
	cpuErr  error
)

func testCPU(t testing.TB) *plasma.CPU {
	t.Helper()
	cpuOnce.Do(func() { cpuVal, cpuErr = plasma.Build(synth.NativeLib{}) })
	if cpuErr != nil {
		t.Fatal(cpuErr)
	}
	return cpuVal
}

// Two small programs with different control flow, so concurrent clients
// grading "distinct programs" exercise distinct goldens and plans.
const progLoop = `
	li $t0, 0x1000
	li $t1, 0x5ea1
	li $s0, 6
lp:	sw $t1, 0($t0)
	lw $t2, 0($t0)
	addu $t1, $t1, $t2
	xor $t3, $t1, $t2
	sw $t3, 4($t0)
	addiu $t0, $t0, 8
	addiu $s0, $s0, -1
	bne $s0, $zero, lp
	nop
h:	j h
	nop
`

const progAlu = `
	li $t0, 0x7f3
	li $t1, 0x1c5
	and $t2, $t0, $t1
	or  $t3, $t0, $t1
	nor $t4, $t2, $t3
	sllv $t5, $t3, $t1
	sw $t2, 0x100($zero)
	sw $t4, 0x104($zero)
	sw $t5, 0x108($zero)
h:	j h
	nop
`

const testCycles = 300

func assemble(t testing.TB, src string) *asm.Program {
	t.Helper()
	prog, err := asm.Assemble(src, 0)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

func newTestServer(t testing.TB, pool int) *Server {
	t.Helper()
	srv, err := NewServer(Config{CPU: testCPU(t), Pool: pool})
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// reference grades the program in-process with fault.Simulate, the ground
// truth every served result must match bit for bit.
func reference(t testing.TB, src string, opt fault.Options) (*plasma.Golden, *fault.Result) {
	t.Helper()
	cpu := testCPU(t)
	g, err := plasma.CaptureGolden(cpu, assemble(t, src), testCycles)
	if err != nil {
		t.Fatal(err)
	}
	res, err := fault.Simulate(cpu, g, fault.Universe(cpu.Netlist), opt)
	if err != nil {
		t.Fatal(err)
	}
	return g, res
}

func requireSameOutcomes(t *testing.T, label string, got, want *fault.Result) {
	t.Helper()
	if len(got.DetectedAt) != len(want.DetectedAt) {
		t.Fatalf("%s: %d outcomes, want %d", label, len(got.DetectedAt), len(want.DetectedAt))
	}
	for i := range want.DetectedAt {
		if got.DetectedAt[i] != want.DetectedAt[i] || got.SignatureGroups[i] != want.SignatureGroups[i] {
			t.Fatalf("%s: fault %d: served (%d, %d) vs Simulate (%d, %d)", label, i,
				got.DetectedAt[i], got.SignatureGroups[i], want.DetectedAt[i], want.SignatureGroups[i])
		}
	}
	if got.Cycles != want.Cycles {
		t.Fatalf("%s: cycles %d, want %d", label, got.Cycles, want.Cycles)
	}
}

func startServer(t *testing.T, srv *Server) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		if err := srv.Shutdown(5 * time.Second); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		if err := <-done; err != nil {
			t.Errorf("serve: %v", err)
		}
	})
	return ln.Addr().String()
}

// TestGradeMemoizesAndMatches drives Server.Grade in-process: repeated
// grades of one program must capture the golden and build the plan exactly
// once, and every response must be bit-identical to fault.Simulate.
func TestGradeMemoizesAndMatches(t *testing.T) {
	opt := fault.Options{Sample: 384, Seed: 1, Workers: 1}
	g, want := reference(t, progLoop, opt)
	srv := newTestServer(t, 1)
	req := Request{
		ProgOrigin: g.ProgOrigin,
		ProgWords:  g.ProgWords,
		Cycles:     testCycles,
		Sample:     opt.Sample,
		Seed:       opt.Seed,
	}
	var resp Response
	for i := 0; i < 3; i++ {
		if err := srv.Grade(&req, &resp); err != nil {
			t.Fatal(err)
		}
		got := &fault.Result{
			Faults:          want.Faults,
			DetectedAt:      resp.DetectedAt,
			SignatureGroups: resp.SignatureGroups,
			Cycles:          resp.Cycles,
		}
		requireSameOutcomes(t, fmt.Sprintf("grade %d", i), got, want)
		if resp.UniverseHash != fault.UniverseHash(want.Faults) {
			t.Fatalf("grade %d: universe hash mismatch", i)
		}
	}
	st := srv.Stats()
	if st.GoldenCaptures != 1 || st.GoldenHits != 2 {
		t.Fatalf("golden memo: %d captures, %d hits; want 1, 2", st.GoldenCaptures, st.GoldenHits)
	}
	if st.PlanBuilds != 1 || st.PlanHits != 2 {
		t.Fatalf("plan memo: %d builds, %d hits; want 1, 2", st.PlanBuilds, st.PlanHits)
	}
	if st.WarmGrades < 2 {
		t.Fatalf("WarmGrades = %d; repeated grades must reuse warm simulators", st.WarmGrades)
	}
	if st.Requests != 3 || st.Errors != 0 {
		t.Fatalf("requests %d / errors %d, want 3 / 0", st.Requests, st.Errors)
	}
}

// TestServedConcurrentBitIdentical is the acceptance gate: concurrent
// clients grading distinct programs over TCP, every response bit-identical
// to sequential in-process fault.Simulate, race-clean (check.sh runs this
// package under -race).
func TestServedConcurrentBitIdentical(t *testing.T) {
	opt := fault.Options{Sample: 256, Seed: 1, Workers: 1}
	if testing.Short() {
		opt.Sample = 96
	}
	gLoop, wantLoop := reference(t, progLoop, opt)
	gAlu, wantAlu := reference(t, progAlu, opt)
	cpu := testCPU(t)
	universe := fault.Universe(cpu.Netlist)

	srv := newTestServer(t, 2)
	addr := startServer(t, srv)

	const clients = 6
	const rounds = 3
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cl, err := Dial(addr)
			if err != nil {
				errs[i] = err
				return
			}
			defer cl.Close()
			g, want := gLoop, wantLoop
			if i%2 == 1 {
				g, want = gAlu, wantAlu
			}
			for r := 0; r < rounds; r++ {
				res, err := cl.Grade(cpu, g, universe, opt)
				if err != nil {
					errs[i] = fmt.Errorf("round %d: %w", r, err)
					return
				}
				for j := range want.DetectedAt {
					if res.DetectedAt[j] != want.DetectedAt[j] || res.SignatureGroups[j] != want.SignatureGroups[j] {
						errs[i] = fmt.Errorf("round %d fault %d: served (%d, %d) vs Simulate (%d, %d)", r, j,
							res.DetectedAt[j], res.SignatureGroups[j], want.DetectedAt[j], want.SignatureGroups[j])
						return
					}
				}
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}
	st := srv.Stats()
	if st.GoldenCaptures != 2 {
		t.Fatalf("%d golden captures for 2 distinct programs", st.GoldenCaptures)
	}
	if st.Requests != clients*rounds {
		t.Fatalf("%d requests served, want %d", st.Requests, clients*rounds)
	}
}

// TestServedExplicitFaultSubset covers the non-universe path the periodic
// composition harness uses: an explicit fault subset rides in the request
// and outcomes align to it.
func TestServedExplicitFaultSubset(t *testing.T) {
	cpu := testCPU(t)
	g, err := plasma.CaptureGolden(cpu, assemble(t, progAlu), testCycles)
	if err != nil {
		t.Fatal(err)
	}
	subset := fault.SampleFaults(fault.Universe(cpu.Netlist), 200, 7)
	opt := fault.Options{Workers: 1}
	want, err := fault.Simulate(cpu, g, subset, opt)
	if err != nil {
		t.Fatal(err)
	}

	srv := newTestServer(t, 1)
	addr := startServer(t, srv)
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	res, err := cl.Grade(cpu, g, subset, opt)
	if err != nil {
		t.Fatal(err)
	}
	requireSameOutcomes(t, "subset", res, want)
}

// TestServerErrorKeepsConnection: a bad request gets an error response and
// the connection keeps serving.
func TestServerErrorKeepsConnection(t *testing.T) {
	srv := newTestServer(t, 1)
	addr := startServer(t, srv)
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	var resp Response
	if err := cl.Do(&Request{Cycles: 0}, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Err == "" {
		t.Fatal("cycle-less request did not fail")
	}
	g, err := plasma.CaptureGolden(testCPU(t), assemble(t, progAlu), testCycles)
	if err != nil {
		t.Fatal(err)
	}
	opt := fault.Options{Sample: 64, Seed: 1, Workers: 1}
	if _, err := cl.Grade(testCPU(t), g, fault.Universe(testCPU(t).Netlist), opt); err != nil {
		t.Fatalf("connection unusable after an error response: %v", err)
	}
	if st := srv.Stats(); st.Errors != 1 {
		t.Fatalf("errors = %d, want 1", st.Errors)
	}
}

// TestRejectedRequestsLeaveNoMemo: requests with an out-of-range cycle
// count or an invalid lane-width cap are rejected before they reach the
// golden and plan memos, so a stream of distinct hostile requests cannot
// grow them (memo entries are never evicted).
func TestRejectedRequestsLeaveNoMemo(t *testing.T) {
	srv := newTestServer(t, 1)
	prog := assemble(t, progAlu)
	var resp Response
	ok := &Request{ProgOrigin: prog.Origin, ProgWords: prog.Words, Cycles: testCycles, Sample: 64, Seed: 1}
	if err := srv.Grade(ok, &resp); err != nil {
		t.Fatal(err)
	}
	goldens, plans := len(srv.goldens), len(srv.plans)
	var bad []*Request
	for i := 0; i < 4; i++ {
		bad = append(bad, &Request{ProgOrigin: prog.Origin, ProgWords: prog.Words, Cycles: maxRequestCycles + 1 + i, Sample: 64})
	}
	for _, lanes := range []int{-1, 3, 6, 2 * 64, 1 << 20} {
		bad = append(bad, &Request{ProgOrigin: prog.Origin, ProgWords: prog.Words, Cycles: testCycles, Sample: 64, LaneWords: lanes})
	}
	for _, req := range bad {
		if err := srv.Grade(req, &resp); err == nil {
			t.Fatalf("request with Cycles=%d LaneWords=%d was accepted", req.Cycles, req.LaneWords)
		}
	}
	if len(srv.goldens) != goldens || len(srv.plans) != plans {
		t.Fatalf("after %d rejected requests: %d golden / %d plan memo keys, want %d / %d",
			len(bad), len(srv.goldens), len(srv.plans), goldens, plans)
	}
	if st := srv.Stats(); st.Errors != int64(len(bad)) {
		t.Fatalf("errors = %d, want %d", st.Errors, len(bad))
	}
}

// TestShutdownDrainsInFlight: a request being graded when Shutdown starts
// still gets its response; new connections are refused afterwards.
func TestShutdownDrainsInFlight(t *testing.T) {
	srv := newTestServer(t, 1)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	addr := ln.Addr().String()

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	dec := shard.NewDecoder(bufio.NewReader(conn))
	var info Info
	if err := dec.ReadFrame(&info); err != nil {
		t.Fatal(err)
	}
	g, err := plasma.CaptureGolden(testCPU(t), assemble(t, progLoop), testCycles)
	if err != nil {
		t.Fatal(err)
	}
	req := Request{Seq: 1, ProgOrigin: g.ProgOrigin, ProgWords: g.ProgWords,
		Cycles: testCycles, Sample: 512, Seed: 1}
	if err := shard.NewEncoder(conn).WriteFrame(&req); err != nil {
		t.Fatal(err)
	}
	// Wait until the server has started grading the request, then shut
	// down mid-grade: the drain must deliver this response.
	for srv.Stats().Requests == 0 {
		time.Sleep(time.Millisecond)
	}
	shutdownDone := make(chan error, 1)
	go func() { shutdownDone <- srv.Shutdown(30 * time.Second) }()
	var resp Response
	if err := dec.ReadFrame(&resp); err != nil {
		t.Fatalf("in-flight response lost during drain: %v", err)
	}
	if resp.Err != "" || resp.Seq != 1 {
		t.Fatalf("drained response: seq %d err %q", resp.Seq, resp.Err)
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("serve: %v", err)
	}
	if _, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
		t.Fatal("listener still accepting after shutdown")
	}
}

// TestDaemonSignalShutdown runs the real daemon lifecycle in a subprocess
// (this test binary re-executed via TestMain): readiness line, one served
// grade, SIGTERM, graceful exit 0, -stats flush on the way out.
func TestDaemonSignalShutdown(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess daemon test")
	}
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "SBST_SERVE_DAEMON=-addr 127.0.0.1:0 -pool 1 -drain 30s -stats")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	out := bufio.NewReader(stdout)
	line, err := out.ReadString('\n')
	if err != nil {
		t.Fatalf("no readiness line: %v", err)
	}
	addr := strings.TrimSpace(strings.TrimPrefix(line, "listening on "))
	if addr == line {
		t.Fatalf("unexpected readiness line %q", line)
	}

	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cpu := testCPU(t)
	if cl.Info().NetlistHash == "" || cl.Info().FaultCount == 0 {
		t.Fatalf("bad handshake: %+v", cl.Info())
	}
	g, err := plasma.CaptureGolden(cpu, assemble(t, progAlu), testCycles)
	if err != nil {
		t.Fatal(err)
	}
	opt := fault.Options{Sample: 128, Seed: 1, Workers: 1}
	want, err := fault.Simulate(cpu, g, fault.Universe(cpu.Netlist), opt)
	if err != nil {
		t.Fatal(err)
	}
	res, err := cl.Grade(cpu, g, fault.Universe(cpu.Netlist), opt)
	if err != nil {
		t.Fatal(err)
	}
	requireSameOutcomes(t, "daemon", res, want)

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	// Drain stdout to EOF before Wait: Wait closes the pipe and would race
	// with reading the stats flush.
	var b strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := out.Read(buf)
		b.Write(buf[:n])
		if err != nil {
			break
		}
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("daemon exit after SIGTERM: %v", err)
	}
	stats := b.String()
	for _, want := range []string{"serving statistics", "simd=", "requests", "1 served", "mean latency"} {
		if !strings.Contains(stats, want) {
			t.Fatalf("stats flush missing %q in:\n%s", want, stats)
		}
	}
}

// TestServerDelegatesToRemoteHosts arms distributed delegation: the
// server coordinates two remote worker hosts (real TCP transport, each
// with its own artifact cache) instead of grading on the local warm
// pool. Responses stay bit-identical to fault.Simulate, and the dist
// counters record the delegation and the one-time artifact replication.
func TestServerDelegatesToRemoteHosts(t *testing.T) {
	var hosts []shard.HostSpec
	for i := 0; i < 2; i++ {
		c, err := cache.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		h := shard.NewHost(c)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ln.Close() })
		go h.Serve(ln)
		hosts = append(hosts, shard.HostSpec{Addr: ln.Addr().String()})
	}
	opt := fault.Options{Sample: 384, Seed: 1}
	g, want := reference(t, progLoop, opt)
	srv, err := NewServer(Config{CPU: testCPU(t), Pool: 1, Hosts: hosts, DistMinFaults: 1})
	if err != nil {
		t.Fatal(err)
	}
	req := Request{
		ProgOrigin: g.ProgOrigin,
		ProgWords:  g.ProgWords,
		Cycles:     testCycles,
		Sample:     opt.Sample,
		Seed:       opt.Seed,
	}
	var resp Response
	for i := 0; i < 2; i++ {
		if err := srv.Grade(&req, &resp); err != nil {
			t.Fatal(err)
		}
		got := &fault.Result{
			Faults:          want.Faults,
			DetectedAt:      resp.DetectedAt,
			SignatureGroups: resp.SignatureGroups,
			Cycles:          resp.Cycles,
		}
		requireSameOutcomes(t, fmt.Sprintf("dist grade %d", i), got, want)
		if resp.UniverseHash != fault.UniverseHash(want.Faults) {
			t.Fatalf("dist grade %d: universe hash mismatch", i)
		}
	}
	st := srv.Stats()
	if st.DistGrades != 2 {
		t.Fatalf("DistGrades = %d, want 2", st.DistGrades)
	}
	if st.DistShipBytes <= 0 {
		t.Fatal("delegation shipped no artifact bytes to fresh worker caches")
	}
	if resp.Stats.DistHosts != 2 {
		t.Fatalf("response DistHosts = %d, want 2", resp.Stats.DistHosts)
	}

	// A tiny explicit fault subset stays under DistMinFaults and grades
	// on the local pool — the delegation threshold is honored.
	srv2, err := NewServer(Config{CPU: testCPU(t), Pool: 1, Hosts: hosts, DistMinFaults: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv2.Grade(&req, &resp); err != nil {
		t.Fatal(err)
	}
	if st := srv2.Stats(); st.DistGrades != 0 {
		t.Fatalf("undersized request was delegated (DistGrades = %d)", st.DistGrades)
	}
	if resp.Stats.DistHosts != 0 {
		t.Fatal("local grade carries dist counters")
	}
}
