package shard

import (
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/asm"
	"repro/internal/cache"
	"repro/internal/fault"
	"repro/internal/gate"
	"repro/internal/plasma"
	"repro/internal/synth"
)

// TestMain makes this test binary a valid exec-host worker (LocalHosts,
// HostSpec.Argv): when the coordinator re-executes it with the session
// marker set, ServeIfWorker serves the session and exits before any test
// runs.
func TestMain(m *testing.M) {
	ServeIfWorker()
	os.Exit(m.Run())
}

var testCPU *plasma.CPU

func getCPU(t *testing.T) *plasma.CPU {
	t.Helper()
	if testCPU == nil {
		c, err := plasma.Build(synth.NativeLib{})
		if err != nil {
			t.Fatal(err)
		}
		testCPU = c
	}
	return testCPU
}

const testProgram = `
	li $t0, 0x1000
	li $t1, 0xa5a5
	sw $t1, 0($t0)
	lw $t2, 0($t0)
	addu $t3, $t2, $t1
	sw $t3, 4($t0)
	xor $t4, $t2, $t1
	sw $t4, 8($t0)
`

func captureTestGolden(t *testing.T, cycles int) *plasma.Golden {
	t.Helper()
	prog, err := asm.Assemble(testProgram+"\nh__: j h__\nnop\n", 0)
	if err != nil {
		t.Fatal(err)
	}
	g, err := plasma.CaptureGolden(getCPU(t), prog, cycles)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func testSample(t *testing.T) int {
	if testing.Short() {
		return 256
	}
	return 2048
}

// requireSameResult asserts two results carry bit-identical outcomes.
func requireSameResult(t *testing.T, got, want *fault.Result) {
	t.Helper()
	if got.Cycles != want.Cycles {
		t.Fatalf("cycles = %d, want %d", got.Cycles, want.Cycles)
	}
	if len(got.Faults) != len(want.Faults) {
		t.Fatalf("fault count = %d, want %d", len(got.Faults), len(want.Faults))
	}
	for i := range want.Faults {
		if got.Faults[i].Site != want.Faults[i].Site {
			t.Fatalf("fault %d is %v, want %v", i, got.Faults[i].Site, want.Faults[i].Site)
		}
		if got.DetectedAt[i] != want.DetectedAt[i] {
			t.Fatalf("fault %d detected at %d, want %d", i, got.DetectedAt[i], want.DetectedAt[i])
		}
		if got.SignatureGroups[i] != want.SignatureGroups[i] {
			t.Fatalf("fault %d signature group %d, want %d", i, got.SignatureGroups[i], want.SignatureGroups[i])
		}
	}
	if got.Coverage() != want.Coverage() {
		t.Fatalf("coverage %v, want %v", got.Coverage(), want.Coverage())
	}
}

func TestFrameRoundTrip(t *testing.T) {
	req := &Request{
		Shard:        3,
		CPUKey:       "cpu-abc",
		GoldenKey:    "golden-def",
		Faults:       []fault.Fault{{Site: gate.FaultSite{Gate: 7, Pin: 1, Stuck: true}, Comp: 2, Equiv: 4}},
		UniverseHash: "deadbeef",
		Engine:       fault.EngineOblivious,
		LaneWords:    8,
		Workers:      2,
	}
	var buf bytes.Buffer
	enc := NewEncoder(&buf)
	if err := enc.WriteFrame(req); err != nil {
		t.Fatal(err)
	}
	frame := append([]byte(nil), buf.Bytes()...)
	// A second frame on the same stream carries no type descriptors and
	// still decodes, in order, through the same Decoder.
	if err := enc.WriteFrame(&Request{Shard: 4}); err != nil {
		t.Fatal(err)
	}
	if second := buf.Len() - len(frame); second >= len(frame) {
		t.Errorf("second frame is %d bytes, first %d: type descriptors re-sent", second, len(frame))
	}
	dec := NewDecoder(&buf)
	var got Request
	if err := dec.ReadFrame(&got); err != nil {
		t.Fatal(err)
	}
	if got.Shard != req.Shard || got.UniverseHash != req.UniverseHash ||
		len(got.Faults) != 1 || got.Faults[0] != req.Faults[0] ||
		got.Engine != req.Engine || got.LaneWords != req.LaneWords || got.Workers != req.Workers {
		t.Fatalf("round trip mangled the request: %+v vs %+v", got, req)
	}
	got = Request{}
	if err := dec.ReadFrame(&got); err != nil || got.Shard != 4 {
		t.Fatalf("second frame: shard %d, err %v", got.Shard, err)
	}

	// A stream that ends mid-header and one that ends mid-payload are both
	// explicit truncation errors, not bare EOFs or decode garbage.
	for _, cut := range []int{4, len(frame) - 3} {
		var r Request
		err := NewDecoder(bytes.NewReader(frame[:cut])).ReadFrame(&r)
		if err == nil || !strings.Contains(err.Error(), "truncated") {
			t.Errorf("cut at %d: err = %v, want truncation", cut, err)
		}
	}

	// A flipped payload bit fails the CRC before gob ever sees it.
	corrupt := append([]byte(nil), frame...)
	corrupt[len(corrupt)-1] ^= 0x40
	var r Request
	if err := NewDecoder(bytes.NewReader(corrupt)).ReadFrame(&r); err == nil || !strings.Contains(err.Error(), "CRC") {
		t.Errorf("corrupted payload: err = %v, want CRC mismatch", err)
	}

	// An absurd declared length is rejected without allocating it.
	huge := append([]byte(nil), frame...)
	huge[0], huge[1], huge[2], huge[3] = 0xff, 0xff, 0xff, 0xff
	if err := NewDecoder(bytes.NewReader(huge)).ReadFrame(&r); err == nil || !strings.Contains(err.Error(), "limit") {
		t.Errorf("oversized frame: err = %v, want limit error", err)
	}
}

// frameHeader is a bare frame header declaring an n-byte payload.
func frameHeader(n uint32) []byte {
	hdr := make([]byte, 8)
	binary.LittleEndian.PutUint32(hdr, n)
	return hdr
}

// TestReadFrameBoundsAllocation pins the hostile-peer memory bound: a
// header declaring a frame just under the 1 GiB limit, followed by a
// hang-up, is a truncation error that cost a few KiB, not a 1 GiB
// allocation made on the header's word alone.
func TestReadFrameBoundsAllocation(t *testing.T) {
	var r Request
	if err := NewDecoder(bytes.NewReader(frameHeader(0xffffffff))).ReadFrame(&r); err == nil || !strings.Contains(err.Error(), "limit") {
		t.Fatalf("0xffffffff-byte header: err = %v, want limit error", err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	err := NewDecoder(bytes.NewReader(frameHeader(maxFrameBytes - 1))).ReadFrame(&r)
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("header then EOF: err = %v, want truncation", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 4<<20 {
		t.Fatalf("a bare %d-byte header allocated %d bytes", maxFrameBytes-1, grew)
	}
}

// FuzzReadFrame feeds arbitrary byte streams to Decoder.ReadFrame, the
// decoder every session host and the grading daemon run on bytes from any
// peer. A stream must end in an error or clean frames, never a panic, and
// the seed corpus (run by plain go test) covers valid streams, truncation
// at both boundaries, CRC damage and hostile lengths.
func FuzzReadFrame(f *testing.F) {
	var buf bytes.Buffer
	enc := NewEncoder(&buf)
	for _, fr := range []*sessionFrame{
		{Kind: frameHello, Proto: sessionProto, Cores: 2},
		{Kind: frameHave, Refs: []ArtifactRef{{Kind: cache.KindGolden, Key: "abc"}}},
		{Kind: frameGrade, Req: &Request{Shard: 1, Faults: []fault.Fault{{Comp: 3}}, UniverseHash: "h"}},
		{Kind: frameResult, Resp: &Response{Shard: 1, DetectedAt: []int32{-1, 7}, SignatureGroups: []uint8{0, 2}}},
	} {
		if err := enc.WriteFrame(fr); err != nil {
			f.Fatal(err)
		}
	}
	valid := buf.Bytes()
	corrupt := append([]byte(nil), valid...)
	corrupt[12] ^= 0x01
	f.Add(valid)
	f.Add(valid[:5])
	f.Add(valid[:len(valid)-3])
	f.Add(corrupt)
	f.Add(frameHeader(0xffffffff))
	f.Add(frameHeader(maxFrameBytes - 1))
	f.Add(append(frameHeader(3), 1, 2, 3))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		dec := NewDecoder(bytes.NewReader(data))
		for {
			var fr sessionFrame
			if err := dec.ReadFrame(&fr); err != nil {
				return
			}
		}
	})
}

func TestPartitionDeterministicAndComplete(t *testing.T) {
	cpu := getCPU(t)
	g := captureTestGolden(t, 60)
	faults := fault.SampleFaults(fault.Universe(cpu.Netlist), testSample(t), 1)

	for _, shards := range []int{1, 2, 3, 7} {
		first, skipped, err := PartitionWeighted(cpu.Netlist, g, faults, fault.EngineEvent, 0, make([]float64, shards))
		if err != nil {
			t.Fatal(err)
		}
		if len(first) != shards {
			t.Fatalf("%d shards requested, %d groups returned", shards, len(first))
		}
		seen := make(map[int]int)
		total := 0
		for _, grp := range first {
			for _, idx := range grp {
				if idx < 0 || idx >= len(faults) {
					t.Fatalf("index %d out of range", idx)
				}
				seen[idx]++
				total++
			}
		}
		for idx, n := range seen {
			if n != 1 {
				t.Fatalf("fault %d assigned to %d shards", idx, n)
			}
		}
		if int64(total)+skipped != int64(len(faults)) {
			t.Fatalf("%d assigned + %d skipped != %d faults", total, skipped, len(faults))
		}
		// The partition is a pure function of its inputs.
		second, _, err := PartitionWeighted(cpu.Netlist, g, faults, fault.EngineEvent, 0, make([]float64, shards))
		if err != nil {
			t.Fatal(err)
		}
		for s := range first {
			if len(first[s]) != len(second[s]) {
				t.Fatalf("shard %d changed size between runs", s)
			}
			for k := range first[s] {
				if first[s][k] != second[s][k] {
					t.Fatalf("shard %d index %d changed between runs", s, k)
				}
			}
		}
	}
}

// TestGradeSubprocess grades over LocalHosts, the hosts behind -shards N:
// re-executions of this test binary (see TestMain) sharing the
// coordinator's cache directory. The result is bit-identical to
// fault.Simulate and no artifact byte is shipped — the coordinator's own
// stores already sit in every worker's cache.
func TestGradeSubprocess(t *testing.T) {
	cpu := getCPU(t)
	g := captureTestGolden(t, 60)
	all := fault.Universe(cpu.Netlist)
	want, err := fault.Simulate(cpu, g, all, fault.Options{Sample: 256, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	coord, err := cache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	hosts, err := LocalHosts(2, coord.Dir())
	if err != nil {
		t.Fatal(err)
	}
	got, stats, err := GradeDist(cpu, g, all, DistOptions{Hosts: hosts, Sample: 256, Seed: 3, Cache: coord})
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, got, want)
	if stats.BytesShipped != 0 {
		t.Fatalf("local hosts on the coordinator cache shipped %d bytes", stats.BytesShipped)
	}
	if got.Stats.DistHosts != 2 {
		t.Fatalf("DistHosts = %d, want 2", got.Stats.DistHosts)
	}
}

// scriptedHost is a session host that claims a warm cache (an empty
// WANT), acks every PUT, and hands each grade request to onGrade, which
// answers on conn through enc — or not at all. Returning false hangs up.
func scriptedHost(onGrade func(conn net.Conn, enc *Encoder, req *Request) bool) HostSpec {
	return HostSpec{dial: func() (io.ReadWriteCloser, error) {
		a, b := net.Pipe()
		go func() {
			defer b.Close()
			enc := NewEncoder(b)
			dec := NewDecoder(b)
			_ = enc.WriteFrame(&sessionFrame{Kind: frameHello, Proto: sessionProto, Cores: 1})
			for {
				var f sessionFrame
				if dec.ReadFrame(&f) != nil {
					return
				}
				switch f.Kind {
				case frameHave:
					_ = enc.WriteFrame(&sessionFrame{Kind: frameWant})
				case framePut:
					_ = enc.WriteFrame(&sessionFrame{Kind: framePutOK})
				case frameGrade:
					if !onGrade(b, enc, f.Req) {
						return
					}
				}
			}
		}()
		return a, nil
	}}
}

// failFirstDial serves the host's first session from bad and every later
// one (the retry's fresh session) from good.
func failFirstDial(bad, good HostSpec) HostSpec {
	var dials atomic.Int32
	return HostSpec{dial: func() (io.ReadWriteCloser, error) {
		if dials.Add(1) == 1 {
			return bad.dial()
		}
		return good.dial()
	}}
}

// gradeRetried grades on one host whose first session misbehaves and
// asserts the coordinator failed that attempt, retried exactly once over
// a fresh session, and converged to the unsharded result.
func gradeRetried(t *testing.T, host HostSpec, timeout time.Duration) {
	t.Helper()
	cpu := getCPU(t)
	g := captureTestGolden(t, 60)
	all := fault.Universe(cpu.Netlist)
	want, err := fault.Simulate(cpu, g, all, fault.Options{Sample: 128, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	got, stats, err := GradeDist(cpu, g, all, DistOptions{
		Hosts:   []HostSpec{host},
		Sample:  128,
		Seed:    5,
		Timeout: timeout,
	})
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, got, want)
	if hs := stats.Hosts[0]; hs.FailedAttempts != 1 || hs.Retries != 1 || hs.Dispatches != 2 {
		t.Fatalf("want one failed attempt and one retry, got %+v", hs)
	}
	if got.Stats.ShardsRetried != 1 || got.Stats.ShardsFailed != 1 {
		t.Fatalf("SimStats shard counters: %+v", got.Stats)
	}
}

// TestWorkerEmitsTruncatedFrame: the first session answers the grade
// with a result frame cut 3 bytes short and hangs up. The truncation
// fails that attempt; the retry converges.
func TestWorkerEmitsTruncatedFrame(t *testing.T) {
	bad := scriptedHost(func(conn net.Conn, _ *Encoder, req *Request) bool {
		var buf bytes.Buffer
		_ = NewEncoder(&buf).WriteFrame(&sessionFrame{Kind: frameResult, Resp: &Response{Shard: req.Shard}})
		_, _ = conn.Write(buf.Bytes()[:buf.Len()-3])
		return false
	})
	gradeRetried(t, failFirstDial(bad, pipeHost(t, newTestHost(t))), 0)
}

// TestWorkerHangsPastTimeout: the first session swallows the grade and
// never answers. The attempt deadline cuts it off, and the retry
// converges.
func TestWorkerHangsPastTimeout(t *testing.T) {
	const timeout = 3 * time.Second
	bad := scriptedHost(func(net.Conn, *Encoder, *Request) bool { return true })
	start := time.Now()
	gradeRetried(t, failFirstDial(bad, pipeHost(t, newTestHost(t))), timeout)
	if elapsed := time.Since(start); elapsed < timeout {
		t.Fatalf("recovered in %v, before the %v deadline could fire", elapsed, timeout)
	}
}

// scriptFrames writes the worker side of a session's opening — a hello
// and an empty WANT — to a file a shell worker can cat onto its stdout.
func scriptFrames(t *testing.T) string {
	t.Helper()
	var buf bytes.Buffer
	enc := NewEncoder(&buf)
	_ = enc.WriteFrame(&sessionFrame{Kind: frameHello, Proto: sessionProto, Cores: 1})
	_ = enc.WriteFrame(&sessionFrame{Kind: frameWant})
	path := filepath.Join(t.TempDir(), "frames")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func requireShell(t *testing.T) {
	t.Helper()
	if _, err := exec.LookPath("sh"); err != nil {
		t.Skip("no sh to script a worker process with")
	}
}

// TestWorkerExitsNonzero crosses a real process boundary: the exec
// host's first process opens the session, claims a warm cache and exits
// nonzero before answering the grade. The attempt fails, and the retry
// spawns a fresh process — this test binary as a session worker (see
// TestMain) — which converges.
func TestWorkerExitsNonzero(t *testing.T) {
	requireShell(t)
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	frames := scriptFrames(t)
	marker := filepath.Join(t.TempDir(), "spawned")
	script := "if [ -e '" + marker + "' ]; then exec '" + exe + "'; fi; : > '" + marker + "'; cat '" + frames + "'; exit 3"
	gradeRetried(t, HostSpec{Argv: []string{"sh", "-c", script}}, 0)
}

// TestHangingWorkerIsReaped asserts the no-zombie guarantee on the exec
// transport: a worker process that opens its session and then never
// answers a grade is killed at the attempt deadline AND reaped, retried
// once, and the second failure fails the run with both attempts' errors
// and no result.
func TestHangingWorkerIsReaped(t *testing.T) {
	requireShell(t)
	var mu sync.Mutex
	var spawned []*execWorker
	execSpawned = func(w *execWorker) {
		mu.Lock()
		spawned = append(spawned, w)
		mu.Unlock()
	}
	defer func() { execSpawned = nil }()
	// exec replaces the shell, so the Kill hits the hanging process
	// itself rather than a parent whose orphan would keep stdout open.
	hang := HostSpec{Argv: []string{"sh", "-c", "cat '" + scriptFrames(t) + "'; exec sleep 60"}}
	cpu := getCPU(t)
	g := captureTestGolden(t, 60)
	res, stats, err := GradeDist(cpu, g, fault.Universe(cpu.Netlist), DistOptions{
		Hosts:   []HostSpec{hang},
		Sample:  128,
		Seed:    5,
		Timeout: 500 * time.Millisecond,
	})
	if err == nil {
		t.Fatal("want the hung worker to fail the run")
	}
	if res != nil {
		t.Fatal("failed run returned a (partial) result")
	}
	if !strings.Contains(err.Error(), "worker failed twice") || !strings.Contains(err.Error(), "timed out") {
		t.Fatalf("err = %v, want both timed-out attempts reported", err)
	}
	if hs := stats.Hosts[0]; hs.Retries != 1 || hs.FailedAttempts != 2 {
		t.Fatalf("stats don't show the retry: %+v", hs)
	}
	if len(spawned) != 2 {
		t.Fatalf("spawned %d worker processes, want the attempt and its retry", len(spawned))
	}
	for i, w := range spawned {
		if w.cmd.ProcessState == nil {
			t.Fatalf("worker %d was killed but never reaped (zombie pid %d)", i, w.cmd.Process.Pid)
		}
	}
}

// TestSpawnFailureExcludesHost: an exec host whose binary cannot start is
// excluded like an unreachable address, and with no live host left the
// run fails loudly — no in-process fallback, no partial result.
func TestSpawnFailureExcludesHost(t *testing.T) {
	cpu := getCPU(t)
	g := captureTestGolden(t, 60)
	missing := HostSpec{Argv: []string{filepath.Join(t.TempDir(), "no-such-worker")}}
	res, stats, err := GradeDist(cpu, g, fault.Universe(cpu.Netlist), DistOptions{
		Hosts:  []HostSpec{missing},
		Sample: 128,
		Seed:   5,
	})
	if err == nil || !strings.Contains(err.Error(), "no reachable hosts") {
		t.Fatalf("err = %v, want no reachable hosts", err)
	}
	if res != nil {
		t.Fatal("failed run returned a result")
	}
	if stats.Hosts[0].Err == "" {
		t.Fatal("unspawnable host not recorded as down")
	}
}
