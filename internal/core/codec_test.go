package core

import (
	"math/rand"
	"testing"

	"desc/internal/bitutil"
	"desc/internal/link"
)

// TestFigure3ByteExample reproduces the paper's introductory example: the
// byte 01010011 sent over two data wires with 4-bit chunks costs three
// bit-flips across the reset and data wires (the sync strobe is shown
// separately, as in the paper).
func TestFigure3ByteExample(t *testing.T) {
	t.Parallel()
	c, err := NewCodec(8, 4, 2, SkipNone)
	if err != nil {
		t.Fatal(err)
	}
	cost := c.Send([]byte{0x53}) // 01010011: chunks 3 (low) and 5 (high)
	if got := cost.Flips.Data + cost.Flips.Control; got != 3 {
		t.Errorf("DESC byte example: %d flips on data+reset, want 3", got)
	}
	if cost.Flips.Data != 2 || cost.Flips.Control != 1 {
		t.Errorf("flip split data=%d control=%d, want 2/1", cost.Flips.Data, cost.Flips.Control)
	}
	// Window: max(3,5)+1 = 6 cycles.
	if cost.Cycles != 6 {
		t.Errorf("cycles = %d, want 6", cost.Cycles)
	}
}

// TestFigure5Timing reproduces the two-chunk serialization of Figure 5:
// values 2 then 1 on a single wire take 3 then 2 cycles (the figure uses
// 3-bit chunks; we use 4-bit chunks on an 8-bit block, which leaves the
// per-chunk timing identical since timing depends only on the values).
func TestFigure5Timing(t *testing.T) {
	t.Parallel()
	c, err := NewCodec(8, 4, 1, SkipNone)
	if err != nil {
		t.Fatal(err)
	}
	// Chunk 0 (low nibble) = 2, chunk 1 (high nibble) = 1.
	cost := c.Send([]byte{0x12})
	if cost.Cycles != 5 {
		t.Errorf("total cycles = %d, want 3+2 = 5", cost.Cycles)
	}
	if cost.Flips.Data != 2 || cost.Flips.Control != 2 {
		t.Errorf("flips data=%d control=%d, want 2 data + 2 resets", cost.Flips.Data, cost.Flips.Control)
	}
}

// TestFigure10Window reproduces Figure 10: chunk values (0,0,5,0) on four
// wires cost 5 flips in a 6-cycle window with basic DESC, and 3 flips in a
// 5-cycle window with zero skipping.
func TestFigure10Window(t *testing.T) {
	t.Parallel()
	block := bitutil.FromChunks([]uint16{0, 0, 5, 0}, 4)

	basic, err := NewCodec(16, 4, 4, SkipNone)
	if err != nil {
		t.Fatal(err)
	}
	cost := basic.Send(block)
	if got := cost.Flips.Data + cost.Flips.Control; got != 5 || cost.Cycles != 6 {
		t.Errorf("basic: %d flips in %d cycles, want 5 flips in 6 cycles", got, cost.Cycles)
	}

	zs, err := NewCodec(16, 4, 4, SkipZero)
	if err != nil {
		t.Fatal(err)
	}
	cost = zs.Send(block)
	if got := cost.Flips.Data + cost.Flips.Control; got != 3 || cost.Cycles != 5 {
		t.Errorf("zero-skipped: %d flips in %d cycles, want 3 flips in 5 cycles", got, cost.Cycles)
	}
}

// TestBasicDESCFlipsDataIndependent verifies the paper's core claim: basic
// DESC's switching activity is independent of the data pattern.
func TestBasicDESCFlipsDataIndependent(t *testing.T) {
	t.Parallel()
	c, err := NewCodec(512, 4, 128, SkipNone)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	var want link.FlipCount
	for i := 0; i < 50; i++ {
		block := make([]byte, 64)
		rng.Read(block)
		got := c.Send(block).Flips
		if i == 0 {
			want = link.FlipCount{Data: got.Data, Control: got.Control}
		}
		if got.Data != want.Data || got.Control != want.Control {
			t.Fatalf("block %d: flips %+v differ from first block %+v", i, got, want)
		}
		if got.Data != 128 || got.Control != 1 {
			t.Fatalf("block %d: data=%d control=%d, want 128/1", i, got.Data, got.Control)
		}
	}
}

// TestZeroSkipAllZeroBlock: an all-zero block costs no data flips, only the
// open/close handshake per round.
func TestZeroSkipAllZeroBlock(t *testing.T) {
	t.Parallel()
	c, err := NewCodec(512, 4, 128, SkipZero)
	if err != nil {
		t.Fatal(err)
	}
	cost := c.Send(make([]byte, 64))
	if cost.Flips.Data != 0 {
		t.Errorf("all-zero block had %d data flips", cost.Flips.Data)
	}
	if cost.Flips.Control != 2 {
		t.Errorf("control flips = %d, want 2", cost.Flips.Control)
	}
	if cost.Cycles != 2 {
		t.Errorf("cycles = %d, want minimum window 2", cost.Cycles)
	}
}

// TestZeroSkipNoSkippedChunks: when every chunk is non-zero no close toggle
// is sent, so control = 1.
func TestZeroSkipNoSkippedChunks(t *testing.T) {
	t.Parallel()
	c, err := NewCodec(16, 4, 4, SkipZero)
	if err != nil {
		t.Fatal(err)
	}
	block := bitutil.FromChunks([]uint16{1, 7, 15, 3}, 4)
	cost := c.Send(block)
	if cost.Flips.Data != 4 || cost.Flips.Control != 1 {
		t.Errorf("flips data=%d control=%d, want 4/1", cost.Flips.Data, cost.Flips.Control)
	}
	if cost.Cycles != 15 {
		t.Errorf("cycles = %d, want max pos 15", cost.Cycles)
	}
}

// TestLastValueSkipRepeatedBlocks: resending an identical block skips every
// chunk.
func TestLastValueSkipRepeatedBlocks(t *testing.T) {
	t.Parallel()
	c, err := NewCodec(512, 4, 128, SkipLast)
	if err != nil {
		t.Fatal(err)
	}
	block := make([]byte, 64)
	rng := rand.New(rand.NewSource(11))
	rng.Read(block)
	first := c.Send(block)
	if first.Flips.Data == 0 {
		t.Error("first transmission should toggle non-zero chunks")
	}
	second := c.Send(block)
	if second.Flips.Data != 0 {
		t.Errorf("identical re-send had %d data flips, want 0", second.Flips.Data)
	}
	if second.Cycles != 2 {
		t.Errorf("identical re-send cycles = %d, want 2", second.Cycles)
	}
}

// TestLastValueInitialState: last-value skipping starts from the all-zero
// power-on state, so the first all-zero block is fully skipped.
func TestLastValueInitialState(t *testing.T) {
	t.Parallel()
	c, err := NewCodec(512, 4, 128, SkipLast)
	if err != nil {
		t.Fatal(err)
	}
	cost := c.Send(make([]byte, 64))
	if cost.Flips.Data != 0 {
		t.Errorf("all-zero first block had %d data flips", cost.Flips.Data)
	}
}

// TestCodecMultiRound checks costs across rounds with fewer wires than
// chunks (Figure 4b).
func TestCodecMultiRound(t *testing.T) {
	t.Parallel()
	c, err := NewCodec(512, 4, 64, SkipNone)
	if err != nil {
		t.Fatal(err)
	}
	block := make([]byte, 64)
	// All chunks 0xF: each of the two rounds takes 16 cycles.
	for i := range block {
		block[i] = 0xFF
	}
	cost := c.Send(block)
	if cost.Cycles != 32 {
		t.Errorf("cycles = %d, want 2 rounds x 16", cost.Cycles)
	}
	if cost.Flips.Data != 128 || cost.Flips.Control != 2 {
		t.Errorf("flips data=%d control=%d, want 128/2", cost.Flips.Data, cost.Flips.Control)
	}
}

// TestCodecSyncStrobeAccounting: sync flips are ceil(cycles/2) per round.
func TestCodecSyncStrobeAccounting(t *testing.T) {
	t.Parallel()
	c, err := NewCodec(16, 4, 4, SkipNone)
	if err != nil {
		t.Fatal(err)
	}
	block := bitutil.FromChunks([]uint16{0, 0, 5, 0}, 4)
	cost := c.Send(block)
	if cost.Flips.Sync != 3 { // ceil(6/2)
		t.Errorf("sync flips = %d, want 3", cost.Flips.Sync)
	}
}

func TestCodecRegistry(t *testing.T) {
	t.Parallel()
	for _, name := range []string{"desc-basic", "desc-zero", "desc-last"} {
		l, err := link.New(link.Spec{Scheme: name, BlockBits: 512, DataWires: 128})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if l.Name() != name {
			t.Errorf("registry returned %q for %q", l.Name(), name)
		}
		if l.ExtraWires() != 2 {
			t.Errorf("%s: extra wires = %d, want 2 (reset + sync)", name, l.ExtraWires())
		}
		// Default chunk width is the paper's 4-bit design point.
		if c, ok := l.(*Codec); !ok || c.Chunker().ChunkBits() != 4 {
			t.Errorf("%s: default chunk width not 4", name)
		}
	}
}

func TestCodecSendWrongSizePanics(t *testing.T) {
	t.Parallel()
	c, err := NewCodec(512, 4, 128, SkipZero)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("Send of wrong-size block did not panic")
		}
	}()
	c.Send(make([]byte, 8))
}

func TestCodecReset(t *testing.T) {
	t.Parallel()
	c, err := NewCodec(512, 4, 128, SkipLast)
	if err != nil {
		t.Fatal(err)
	}
	block := make([]byte, 64)
	for i := range block {
		block[i] = 0xA7
	}
	c.Send(block)
	c.Reset()
	// After reset, history is the power-on all-zero state again.
	cost := c.Send(make([]byte, 64))
	if cost.Flips.Data != 0 {
		t.Errorf("post-reset all-zero block had %d data flips", cost.Flips.Data)
	}
}

// TestRoundCostNeverNegative: roundCost has no clamp for an empty round,
// so for every geometry NewCodec accepts (chunk widths 1–8, blocks up to
// 128 bytes, 1–160 wires) the whole round and the final round must each
// hold at least one chunk, and the cheapest round either can produce
// (maxCount 0, every chunk skipped or none) must cost no negative time.
func TestRoundCostNeverNegative(t *testing.T) {
	t.Parallel()
	for chunkBits := 1; chunkBits <= 8; chunkBits++ {
		for blockBits := chunkBits; blockBits <= 1024; blockBits += chunkBits {
			for wires := 1; wires <= 160; wires++ {
				c, err := NewCodec(blockBits, chunkBits, wires, SkipZero)
				if err != nil {
					continue
				}
				for _, g := range []roundGeom{c.full, c.final} {
					if g.chunks < 1 || g.chunks > wires {
						t.Fatalf("%d/%d/%d: a round holds %d chunks, want 1..%d",
							blockBits, chunkBits, wires, g.chunks, wires)
					}
					for _, unskipped := range []int{0, g.chunks} {
						for _, skipping := range []bool{false, true} {
							if cost := c.roundCost(0, g.chunks, unskipped, skipping); cost.Cycles < 0 {
								t.Fatalf("%d/%d/%d: round of %d chunks (%d unskipped, skipping=%v) costed %d cycles",
									blockBits, chunkBits, wires, g.chunks, unskipped, skipping, cost.Cycles)
							}
						}
					}
				}
			}
		}
	}
}
