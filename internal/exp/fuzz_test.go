package exp

import (
	"context"
	"testing"

	"desc/internal/cpusim"
	"desc/internal/wiremodel"
	"desc/internal/workload"
)

// FuzzSimulateSpec drives every SystemSpec field through Simulate, the one
// assembly of the simulator behind the public API, the Runner and trace
// replay. Whatever the spec, Simulate must either return an error or a run
// with nonzero cycles; it must never panic. Sizes are folded into small
// ranges, keeping their sign, so that one input allocates at most a few
// megabytes; within those ranges every value is reachable.
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
	})
}
