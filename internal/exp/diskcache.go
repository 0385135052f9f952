// Disk-cache integration: how a runKey becomes a content address and how
// a RunResult becomes (and is recovered from) a cache payload. The store
// itself — envelope format, atomic writes, merge — lives in
// internal/runcache; this file owns the semantics: key canonicalization
// and the versioned result encoding.
package exp

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"strconv"
)

// CodeFingerprint versions the simulation semantics inside every cache
// key. Bump it whenever a change alters any simulated result — new
// energy constants, a fixed simulator bug, a workload generator tweak —
// so stale entries from the previous semantics read as misses instead of
// polluting new sweeps. The golden-output tests (golden_sim_test.go)
// catch the changes that require a bump.
const CodeFingerprint = "desc-sim-v1"

// canonical renders the key as a stable, versioned, self-describing
// text form — one "name value" line per field, every field explicit.
// The digest of this string is the entry's content address, so the
// rendering must change if and only if the key's meaning changes:
// enum fields are rendered as integers (String() labels may be reworded;
// the values are load-bearing), and TestRunKeyDigestCoversEveryField
// fails if a SystemSpec field is added without extending this list.
func (k runKey) canonical() string {
	var b bytes.Buffer
	line := func(name, value string) {
		b.WriteString(name)
		b.WriteByte(' ')
		b.WriteString(value)
		b.WriteByte('\n')
	}
	line("desc-runkey", "1")
	line("code", CodeFingerprint)
	line("scheme", k.spec.Scheme)
	line("wires", strconv.Itoa(k.spec.DataWires))
	line("chunk", strconv.Itoa(k.spec.ChunkBits))
	line("segment", strconv.Itoa(k.spec.SegmentBits))
	line("banks", strconv.Itoa(k.spec.Banks))
	line("capacity", strconv.Itoa(k.spec.CapacityBytes))
	line("cells", strconv.Itoa(int(k.spec.Cells)))
	line("periphery", strconv.Itoa(int(k.spec.Periphery)))
	line("nuca", strconv.FormatBool(k.spec.NUCA))
	line("ecc", strconv.Itoa(k.spec.ECCSegment))
	line("kind", strconv.Itoa(int(k.spec.Kind)))
	line("prefetch", strconv.FormatBool(k.spec.Prefetch))
	line("bench", k.bench)
	line("seed", strconv.FormatInt(k.seed, 10))
	line("instr", strconv.FormatUint(k.instr, 10))
	return b.String()
}

// digest content-addresses the key: the SHA-256 of its canonical form,
// in lowercase hex — the shape runcache.Store requires.
func (k runKey) digest() string {
	sum := sha256.Sum256([]byte(k.canonical()))
	return hex.EncodeToString(sum[:])
}

// The cache payload is a fixed-layout binary record, every integer
// little-endian, so entries hold the same bytes on every host:
//
//	magic    8 bytes  "descrun\x00"
//	version  uint64   diskRecordVersion
//	key      64 bytes the entry's key digest (lowercase hex), a
//	                  self-check against misfiled entries
//	benchLen uint64   length of the Bench name
//	bench    benchLen bytes
//	fields   diskNumericFields × uint64: every numeric field of
//	                  RunResult in putResult's order, floats as
//	                  math.Float64bits
//
// It decodes without reflection: decoding the JSON record it replaced
// took over a third of a warm sweep's CPU (DESIGN.md §16). The layout
// is hand-written, so TestDiskRecordCoversEveryField fails if
// RunResult, or a struct it embeds, gains a field that putResult and
// getResult do not carry.
const (
	diskMagic = "descrun\x00"
	// diskRecordVersion bumps when the record layout changes; older
	// payloads (version 1 was a JSON record) then decode as misses and
	// are recomputed and rewritten in place.
	diskRecordVersion = 2
	diskDigestLen     = 2 * sha256.Size
	diskNumericFields = 29
	// diskFixedLen is the record length with an empty Bench name.
	diskFixedLen = len(diskMagic) + 8 + diskDigestLen + 8 + 8*diskNumericFields
)

// encodeResult produces the cache payload for a finished run.
func encodeResult(digest string, res RunResult) ([]byte, error) {
	if len(digest) != diskDigestLen {
		return nil, fmt.Errorf("exp: cache key %q is not a %d-digit digest", digest, diskDigestLen)
	}
	w := recordWriter{b: make([]byte, 0, diskFixedLen+len(res.Bench))}
	w.b = append(w.b, diskMagic...)
	w.u64(diskRecordVersion)
	w.b = append(w.b, digest...)
	w.u64(uint64(len(res.Bench)))
	w.b = append(w.b, res.Bench...)
	putResult(&w, &res)
	return w.b, nil
}

// decodeResult recovers a RunResult from a cache payload. ok is false —
// caller recomputes — for any deviation: wrong magic or record version
// (a v1 JSON record among them), a digest mismatch, or a length other
// than the exact one the Bench name implies. Every accepted payload
// re-encodes byte-identically.
func decodeResult(digest string, payload []byte) (RunResult, bool) {
	if len(payload) < diskFixedLen || string(payload[:len(diskMagic)]) != diskMagic {
		return RunResult{}, false
	}
	r := recordReader{b: payload[len(diskMagic):]}
	if r.u64() != diskRecordVersion || string(r.b[:diskDigestLen]) != digest {
		return RunResult{}, false
	}
	r.b = r.b[diskDigestLen:]
	if n := r.u64(); n != uint64(len(payload)-diskFixedLen) {
		return RunResult{}, false
	}
	var res RunResult
	n := len(r.b) - 8*diskNumericFields
	res.Bench = string(r.b[:n])
	r.b = r.b[n:]
	getResult(&r, &res)
	return res, true
}

// putResult appends res's numeric fields in record order. getResult
// must read them back in the same order.
func putResult(w *recordWriter, res *RunResult) {
	b, sim, h := &res.Breakdown, &res.Sim, &res.Sim.Hierarchy
	w.u64(res.Cycles)
	w.f64(b.CoreDynJ)
	w.f64(b.L1DynJ)
	w.f64(b.CoreStaticJ)
	w.f64(b.L2HTreeJ)
	w.f64(b.L2ArrayJ)
	w.f64(b.L2StaticJ)
	w.f64(b.DRAMJ)
	w.f64(res.AvgHit)
	w.u64(sim.Cycles)
	w.u64(sim.Instructions)
	w.u64(sim.MemRefs)
	w.u64(h.L1Hits)
	w.u64(h.L1Misses)
	w.u64(h.L2Hits)
	w.u64(h.L2Misses)
	w.u64(h.L2Writebacks)
	w.u64(h.Invalidations)
	w.u64(h.UpgradeMisses)
	w.u64(h.MSHRMerges)
	w.u64(h.L1WritebacksToL2)
	w.u64(h.PrefetchFills)
	w.u64(h.PrefetchHits)
	w.u64(h.HitLatencySumCycles)
	w.u64(h.HitCount)
	w.u64(h.QueueDelaySumCycles)
	w.f64(sim.AvgHitLatencyCycles)
	w.f64(res.AreaMM2)
	w.f64(res.LeakageW)
}

// getResult reads res's numeric fields in putResult's order. The caller
// has checked that r holds exactly diskNumericFields words.
func getResult(r *recordReader, res *RunResult) {
	b, sim, h := &res.Breakdown, &res.Sim, &res.Sim.Hierarchy
	res.Cycles = r.u64()
	b.CoreDynJ = r.f64()
	b.L1DynJ = r.f64()
	b.CoreStaticJ = r.f64()
	b.L2HTreeJ = r.f64()
	b.L2ArrayJ = r.f64()
	b.L2StaticJ = r.f64()
	b.DRAMJ = r.f64()
	res.AvgHit = r.f64()
	sim.Cycles = r.u64()
	sim.Instructions = r.u64()
	sim.MemRefs = r.u64()
	h.L1Hits = r.u64()
	h.L1Misses = r.u64()
	h.L2Hits = r.u64()
	h.L2Misses = r.u64()
	h.L2Writebacks = r.u64()
	h.Invalidations = r.u64()
	h.UpgradeMisses = r.u64()
	h.MSHRMerges = r.u64()
	h.L1WritebacksToL2 = r.u64()
	h.PrefetchFills = r.u64()
	h.PrefetchHits = r.u64()
	h.HitLatencySumCycles = r.u64()
	h.HitCount = r.u64()
	h.QueueDelaySumCycles = r.u64()
	sim.AvgHitLatencyCycles = r.f64()
	res.AreaMM2 = r.f64()
	res.LeakageW = r.f64()
}

// recordWriter appends little-endian words to a record.
type recordWriter struct{ b []byte }

func (w *recordWriter) u64(v uint64)  { w.b = binary.LittleEndian.AppendUint64(w.b, v) }
func (w *recordWriter) f64(v float64) { w.u64(math.Float64bits(v)) }

// recordReader consumes little-endian words from the front of a record.
type recordReader struct{ b []byte }

func (r *recordReader) u64() uint64 {
	v := binary.LittleEndian.Uint64(r.b)
	r.b = r.b[8:]
	return v
}

func (r *recordReader) f64() float64 { return math.Float64frombits(r.u64()) }

// diskGet consults the disk cache for key. A hit returns the decoded
// result; an envelope-valid entry whose payload fails to decode counts
// corrupt and reads as a miss.
func (r *Runner) diskGet(key runKey) (RunResult, bool) {
	d := key.digest()
	payload, ok := r.disk.Get(d)
	if !ok {
		return RunResult{}, false
	}
	res, ok := decodeResult(d, payload)
	if !ok {
		r.disk.NoteCorrupt(d)
		return RunResult{}, false
	}
	return res, true
}

// diskPut writes a finished run back to the disk cache. Best-effort: a
// failed write costs a future recompute, not this sweep — the store
// counts it (runcache/write_errors) and the run's result stands.
func (r *Runner) diskPut(key runKey, res RunResult) {
	d := key.digest()
	payload, err := encodeResult(d, res)
	if err != nil {
		r.disk.NoteCorrupt(d)
		return
	}
	_ = r.disk.Put(d, payload)
}
