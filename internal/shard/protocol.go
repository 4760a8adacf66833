// Package shard scales fault grading across worker processes and
// machines: a coordinator (GradeDist) partitions the fault universe into
// deterministic, cache-friendly shards (reusing the cone-aware pass
// packing of internal/fault), replicates the synthesized netlist and the
// sparse golden trace to each worker's artifact cache by content hash,
// dispatches the shards over persistent worker sessions, and unions the
// per-shard detections with fault.MergeShards into a result bit-identical
// to an unsharded run.
//
// Workers are sessions on hosts: TCP host daemons, exec argvs (an ssh
// wrapper reaches another machine), or LocalHosts — N re-executions of
// the current binary reading the coordinator's own cache, which is what
// `-shards N` grades on. Every session message is a length-prefixed,
// CRC-guarded gob frame on a persistent stream (Encoder/Decoder); a
// truncated or corrupted frame fails the attempt, which is retried once
// and then fails the run — never a silently partial merge.
package shard

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"io"
	"slices"

	"repro/internal/fault"
)

// Request is the coordinator-to-worker job description. Heavy artifacts
// (netlist, golden trace) travel by content address through the worker's
// artifact cache; only the shard's own fault subset rides in the frame.
type Request struct {
	// Shard is the shard's index in the coordinator's partition, echoed
	// back in the Response.
	Shard int
	// CPUKey and GoldenKey address the replicated CPU (cache.PutCPU) and
	// golden trace (cache.PutGolden) in the worker's artifact cache.
	CPUKey    string
	GoldenKey string
	// Faults is the shard's fault subset, in the coordinator's shard-local
	// order; UniverseHash is fault.UniverseHash over it, echoed back so a
	// mismatched merge is diagnosable end to end.
	Faults       []fault.Fault
	UniverseHash string
	// Engine, LaneWords and Workers configure the worker's in-process
	// fault.Simulate run.
	Engine    fault.Engine
	LaneWords int
	Workers   int
}

// Response is the worker-to-coordinator result frame: the per-fault
// outcomes aligned to Request.Faults, or a worker-side error.
type Response struct {
	Shard int
	// Err, when non-empty, reports a worker-side failure (bad artifact,
	// simulation error); the coordinator treats it like a crash.
	Err string
	// UniverseHash echoes the request's hash after the worker recomputed
	// it over the faults it actually graded.
	UniverseHash    string
	Cycles          int
	DetectedAt      []int32
	SignatureGroups []uint8
	Stats           fault.SimStats
	// WallNs is the worker-side wall clock of the simulation itself, so
	// the coordinator can split an attempt's latency into ship/queue/sim
	// components.
	WallNs int64
}

// maxFrameBytes bounds a frame's declared payload length. The Decoder
// grows its buffer only as payload bytes arrive, so a header declaring a
// large frame costs memory in proportion to what the peer actually sends.
const maxFrameBytes = 1 << 30

// frameGrowBytes is the smallest step the Decoder grows its payload
// buffer by while a frame larger than the buffer arrives.
const frameGrowBytes = 64 << 10

// Encoder writes a persistent stream of length-prefixed, CRC-guarded gob
// frames: the wire framing of every inter-process protocol in this repo
// (shard sessions and the grading server, internal/serve). It keeps one
// gob stream alive across frames, so type descriptors are transmitted
// once per connection instead of once per message — the difference
// between ~KB and ~tens of bytes per request on a long-lived grading
// connection. Frames produced by an Encoder must be consumed in order by
// the matching Decoder (the gob stream spans frames).
type Encoder struct {
	w   io.Writer
	buf bytes.Buffer
	enc *gob.Encoder
}

// NewEncoder returns an Encoder framing a persistent gob stream onto w.
func NewEncoder(w io.Writer) *Encoder {
	e := &Encoder{w: w}
	e.enc = gob.NewEncoder(&e.buf)
	return e
}

// WriteFrame appends v to the gob stream and writes it as one frame. Any
// type descriptors v needs for the first time travel inside the same
// frame, so each frame still decodes independently in arrival order.
func (e *Encoder) WriteFrame(v any) error {
	e.buf.Reset()
	if err := e.enc.Encode(v); err != nil {
		return fmt.Errorf("shard: encode frame: %w", err)
	}
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[:4], uint32(e.buf.Len()))
	binary.LittleEndian.PutUint32(hdr[4:], crc32.ChecksumIEEE(e.buf.Bytes()))
	if _, err := e.w.Write(hdr[:]); err != nil {
		return fmt.Errorf("shard: write frame header: %w", err)
	}
	if _, err := e.w.Write(e.buf.Bytes()); err != nil {
		return fmt.Errorf("shard: write frame payload: %w", err)
	}
	return nil
}

// Decoder reads the frame stream an Encoder produces, verifying each
// frame's CRC before handing its bytes to the persistent gob stream. The
// payload buffer is reused across frames, so steady-state reads allocate
// only what gob itself needs for the decoded values.
type Decoder struct {
	r       io.Reader
	payload []byte
	cur     bytes.Reader
	dec     *gob.Decoder
}

// NewDecoder returns a Decoder consuming an Encoder's frame stream from r.
func NewDecoder(r io.Reader) *Decoder {
	d := &Decoder{r: r}
	d.dec = gob.NewDecoder(&d.cur)
	return d
}

// ReadFrame reads one frame into v. Truncation (stream ends mid-frame),
// an oversized declared length, and corruption (CRC mismatch) are
// distinct, explicit errors.
func (d *Decoder) ReadFrame(v any) error {
	var hdr [8]byte
	if _, err := io.ReadFull(d.r, hdr[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			return fmt.Errorf("shard: truncated frame header: %w", err)
		}
		return fmt.Errorf("shard: read frame header: %w", err)
	}
	n := binary.LittleEndian.Uint32(hdr[:4])
	if n > maxFrameBytes {
		return fmt.Errorf("shard: frame of %d bytes exceeds the %d-byte limit", n, maxFrameBytes)
	}
	if err := d.readPayload(int(n)); err != nil {
		return fmt.Errorf("shard: truncated frame: got fewer than the declared %d bytes: %w", n, err)
	}
	if crc := crc32.ChecksumIEEE(d.payload); crc != binary.LittleEndian.Uint32(hdr[4:]) {
		return fmt.Errorf("shard: frame CRC mismatch")
	}
	d.cur.Reset(d.payload)
	if err := d.dec.Decode(v); err != nil {
		return fmt.Errorf("shard: decode frame: %w", err)
	}
	return nil
}

// readPayload reads exactly n bytes into d.payload. A buffer too small
// for the frame grows as the bytes arrive — doubling, at least
// frameGrowBytes per step, never past n — rather than all at once on
// the header's word, so a peer that declares a huge frame and hangs up
// costs a bounded allocation.
func (d *Decoder) readPayload(n int) error {
	buf := d.payload[:0]
	for len(buf) < n {
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, min(n-len(buf), max(len(buf), frameGrowBytes)))
		}
		k, err := io.ReadFull(d.r, buf[len(buf):min(cap(buf), n)])
		buf = buf[:len(buf)+k]
		if err != nil {
			d.payload = buf[:0]
			return err
		}
	}
	d.payload = buf
	return nil
}
