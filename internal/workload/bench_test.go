package workload

import "testing"

// benchBlocks is the number of distinct blocks a benchmark cycles over.
const benchBlocks = 1024

// blockSink keeps the benchmarked blocks alive.
var blockSink [64]byte

// BenchmarkGenBlock prices generating one block, cache aside.
func BenchmarkGenBlock(b *testing.B) {
	g := NewGenerator(Parallel()[11], 1) // Radix
	var buf [64]byte
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.genBlock(uint64(1)<<40+uint64(i%benchBlocks)*64, &buf)
	}
	blockSink = buf
}

// absentBase advances past every address BenchmarkFillBlockData/absent
// has filled, so each of its iterations asks for a block that no earlier
// iteration or run put in the cache.
var absentBase = uint64(1) << 44

// BenchmarkFillBlockData prices a FillBlockData that the block cache
// serves (hit) and one that generates and records the block (absent).
// The hits cycle over half the ring's capacity, 16 384 blocks.
func BenchmarkFillBlockData(b *testing.B) {
	g := NewGenerator(Parallel()[11], 1) // Radix
	var buf [64]byte
	b.Run("hit", func(b *testing.B) {
		const n = blockCacheCap / 2
		for i := uint64(0); i < n; i++ {
			g.FillBlockData(uint64(1)<<40+i*64, buf[:])
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			g.FillBlockData(uint64(1)<<40+uint64(i%n)*64, buf[:])
		}
		blockSink = buf
	})
	b.Run("absent", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			g.FillBlockData(absentBase+uint64(i)*64, buf[:])
		}
		absentBase += uint64(b.N) * 64
		blockSink = buf
	})
}

// accessSink keeps the benchmarked accesses alive.
var accessSink Access

// BenchmarkStreamNext prices one access of a private stream: context 3
// of 32, the design point's context count.
func BenchmarkStreamNext(b *testing.B) {
	s := NewGenerator(Parallel()[11], 1).Stream(3, 32) // Radix
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		accessSink = s.Next()
	}
}
