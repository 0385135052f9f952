package cachesim_test

import (
	"testing"

	"desc/internal/cachemodel"
	"desc/internal/cachesim"
	"desc/internal/cpusim"
	"desc/internal/workload"
)

// BenchmarkHierarchyAccess prices Hierarchy.Access alone: it replays a
// recorded Radix trace (8 cores, 4000 references each, issued as in the
// access digest) through the design-point hierarchy. Building and
// releasing the hierarchy stay outside the timer, and the generated
// blocks are warm, as in every sweep run after the first.
func BenchmarkHierarchyAccess(b *testing.B) {
	const cores, refs = 8, 4000
	radix, _ := workload.ByName("Radix")
	src := capture(b, radix, cores, refs)
	gen, err := src.Generator()
	if err != nil {
		b.Fatal(err)
	}
	cfg := cachesim.Config{L2: cachemodel.Config{Scheme: "desc-zero", DataWires: 128}}
	streams := make([]cpusim.AccessSource, cores)
	now := make([]uint64, cores)
	run := func() {
		h, err := cachesim.New(cfg, gen)
		if err != nil {
			b.Fatal(err)
		}
		for c := range streams {
			streams[c], now[c] = src.Stream(c, cores), 0
		}
		b.StartTimer()
		for i := 0; i < refs; i++ {
			for c, s := range streams {
				a := s.Next()
				now[c] = h.Access(now[c]+uint64(a.Gap), c, a.Addr, a.Write)
			}
		}
		b.StopTimer()
		h.Release()
	}
	b.StopTimer()
	run() // warm the generated blocks and the pooled L2 table
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		run()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*cores*refs), "ns/access")
}
