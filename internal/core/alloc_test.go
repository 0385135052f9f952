package core

// Allocation regression tests: the experiment sweeps call Send billions of
// times, so the steady state must not allocate — for every lane load form
// (raw, spread in place, ragged) and every skip kind. A regression here
// is a performance bug even when every cost still matches the oracle.

import (
	"math/rand"
	"testing"
)

func steadyStateBlocks(blockBytes int) [][]byte {
	rng := rand.New(rand.NewSource(5))
	blocks := make([][]byte, 8)
	for i := range blocks {
		blocks[i] = make([]byte, blockBytes)
		if i%3 != 0 { // keep some all-zero blocks in rotation
			rng.Read(blocks[i])
		}
	}
	return blocks
}

func TestCodecSendZeroAllocs(t *testing.T) {
	geometries := []struct {
		name                        string
		blockBits, chunkBits, wires int
	}{
		{"word-kernel", 512, 4, 128},
		{"word-kernel-multiround", 512, 4, 64},
		{"word-kernel-bytes", 512, 8, 64},
		{"word-kernel-partial-round", 512, 4, 48},
		{"word-kernel-partial-word", 96, 4, 16},
		{"ragged", 512, 4, 24},
		{"spread-narrow-chunks", 512, 2, 64},
		{"ragged-spread", 384, 3, 48},
	}
	for _, g := range geometries {
		for _, kind := range allKinds {
			c, err := NewCodec(g.blockBits, g.chunkBits, g.wires, kind)
			if err != nil {
				t.Fatalf("%s %v: %v", g.name, kind, err)
			}
			blocks := steadyStateBlocks(g.blockBits / 8)
			// Warm up: first sends may grow the reused buffers (and the
			// adaptive tables for wide chunks).
			for _, b := range blocks {
				c.Send(b)
			}
			i := 0
			avg := testing.AllocsPerRun(100, func() {
				c.Send(blocks[i%len(blocks)])
				i++
			})
			if avg != 0 {
				t.Errorf("%s %v: %.2f allocs per steady-state Send, want 0", g.name, kind, avg)
			}
		}
	}
}

// TestReceiverBlockZeroAllocs pins the decode side: after the first call
// grows the scratch, Block reassembles into reused buffers.
func TestReceiverBlockZeroAllocs(t *testing.T) {
	for _, chunkBits := range []int{4, 8} {
		ch, err := NewChannel(512, chunkBits, 64, SkipZero, 1)
		if err != nil {
			t.Fatal(err)
		}
		blocks := steadyStateBlocks(64)
		for _, b := range blocks {
			ch.Send(b)
		}
		avg := testing.AllocsPerRun(100, func() {
			ch.RX.Block()
		})
		if avg != 0 {
			t.Errorf("k=%d: %.2f allocs per steady-state Block, want 0", chunkBits, avg)
		}
	}
}
