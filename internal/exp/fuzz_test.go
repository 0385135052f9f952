package exp

import (
	"bytes"
	"context"
	"testing"

	"desc/internal/cpusim"
	"desc/internal/wiremodel"
	"desc/internal/workload"
)

// FuzzSimulateSpec drives every SystemSpec field through Simulate, the one
// assembly of the simulator behind the public API, the Runner and trace
// replay. Whatever the spec, Simulate must either return an error or a run
// with nonzero cycles, an unknown device class must be an error, and it
// must never panic. Sizes are folded into small ranges, keeping their
// sign, so that one input allocates at most a few megabytes; within those
// ranges every value is reachable.
func FuzzSimulateSpec(f *testing.F) {
	// The three inputs the public API used to mishandle: an L2 smaller
	// than one set (a divide by zero), an unknown core kind and a
	// negative ECC segment (both silently coerced).
	f.Add("binary", 64, 0, 0, 0, 1000, 0, 0, false, 0, 0, false)
	f.Add("binary", 64, 0, 0, 0, 0, 0, 0, false, 0, 7, false)
	f.Add("binary", 64, 0, 0, 0, 0, 0, 0, false, -1, 0, false)
	// Valid corners: the DESC design point with ECC and prefetch, S-NUCA,
	// and the out-of-order core.
	f.Add("desc-zero", 128, 4, 0, 8, 8<<20, 1, 2, false, 32, 0, true)
	f.Add("bic", 64, 0, 8, 128, 8<<20, 0, 0, true, 64, 1, false)
	// Unknown device classes, once priced as LSTP leakage with HP delay.
	f.Add("binary", 64, 0, 0, 0, 0, 3, 0, false, 0, 0, false)
	f.Add("binary", 64, 0, 0, 0, 0, 0, -1, false, 0, 0, false)

	prof, _ := workload.ByName("Art")
	f.Fuzz(func(t *testing.T, scheme string, wires, chunk, segment, banks, capacity, cells, periphery int,
		nuca bool, ecc, kind int, prefetch bool) {
		spec := SystemSpec{
			Scheme:        scheme,
			DataWires:     wires % 1024,
			ChunkBits:     chunk % 64,
			SegmentBits:   segment % 1024,
			Banks:         banks % 256,
			CapacityBytes: capacity % (16 << 20),
			Cells:         wiremodel.DeviceClass(cells),
			Periphery:     wiremodel.DeviceClass(periphery),
			NUCA:          nuca,
			ECCSegment:    ecc % 1024,
			Kind:          cpusim.CoreKind(kind),
			Prefetch:      prefetch,
		}
		gen := workload.NewGenerator(prof, 1)
		res, err := Simulate(context.Background(), spec, gen, cpusim.Streams(gen), 40, nil)
		if err == nil && res.Cycles == 0 {
			t.Errorf("%+v: simulated zero cycles without an error", spec)
		}
		if err == nil && !(knownClass(spec.Cells) && knownClass(spec.Periphery)) {
			t.Errorf("%+v: simulated an unknown device class without an error", spec)
		}
	})
}

func knownClass(c wiremodel.DeviceClass) bool {
	return c == wiremodel.HP || c == wiremodel.LOP || c == wiremodel.LSTP
}

// FuzzDecodeResult feeds arbitrary payloads to the disk record decoder.
// It must never panic, and any payload it accepts must re-encode byte
// for byte: the record is canonical, so entries and shard merges stay
// byte-identical.
func FuzzDecodeResult(f *testing.F) {
	digest := runKey{spec: DESCZero(), bench: "Art", seed: 1, instr: 100}.digest()
	res := RunResult{Bench: "Art", Cycles: 1234, AvgHit: 21.5, AreaMM2: 3.25, LeakageW: 0.125}
	res.Breakdown.L2HTreeJ = 1e-6
	res.Sim.Cycles = 1234
	res.Sim.Hierarchy.L2Hits = 99
	res.Sim.AvgHitLatencyCycles = 21.5
	valid, err := encodeResult(digest, res)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	for _, n := range []int{0, len(diskMagic), diskFixedLen - 1, diskFixedLen, len(valid) - 1} {
		f.Add(valid[:n])
	}
	f.Add(legacyJSONPayload(digest, res))

	f.Fuzz(func(t *testing.T, payload []byte) {
		got, ok := decodeResult(digest, payload)
		if !ok {
			return
		}
		again, err := encodeResult(digest, got)
		if err != nil {
			t.Fatalf("accepted payload does not re-encode: %v", err)
		}
		if !bytes.Equal(again, payload) {
			t.Fatalf("accepted payload re-encodes differently\npayload: %x\nagain:   %x", payload, again)
		}
	})
}
