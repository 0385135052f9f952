package core

// The differential harness: every geometry and skip kind is driven with
// the same stateful traffic through three implementations — the fast
// codec (the lane kernel), the frozen scalar oracle from
// reference_test.go, and, where tractable, the cycle-accurate
// Transmitter/Receiver pair — and all three must agree on every
// per-block cost and on lossless decode. This is the invariant that lets
// the encode kernels be optimized freely without ever shifting a paper
// result.

import (
	"bytes"
	"math/rand"
	"testing"

	"desc/internal/link"
)

var allKinds = []SkipKind{SkipNone, SkipZero, SkipLast, SkipAdaptive}

// codecGeometries sweeps the lane kernel over raw word loads (4- and
// 8-bit chunks, wire counts in whole words, partial final rounds
// included) and spread or ragged loads (other chunk widths, ragged wire
// counts) side by side.
var codecGeometries = []struct {
	blockBits, chunkBits, wires int
}{
	{512, 4, 128}, // the paper's design point: one round, 8 words
	{512, 4, 64},  // two rounds
	{512, 4, 16},  // eight rounds, single word each
	{64, 4, 16},   // the fuzz geometry
	{512, 4, 48},  // partial final round (128 chunks, 48 wires)
	{512, 4, 80},  // partial final round, multi-word tail
	{512, 8, 64},  // 8-bit chunks, byte lanes
	{512, 8, 48},  // 8-bit chunks with a partial final round
	{96, 4, 16},   // final round of 8 chunks, partial tail word
	{96, 8, 8},    // byte lanes with a partial tail word
	{512, 4, 24},  // wires not a whole number of words
	{512, 8, 28},  // ragged for byte lanes
	{512, 2, 128}, // 2-bit chunks spread into nibbles
	{512, 1, 64},  // 1-bit chunks spread into nibbles
	{8, 4, 2},     // the paper's Figure 3 example geometry
	{512, 2, 64},  // the Figure 22/26 chunk sweeps' narrow widths
	{512, 1, 32},
	{512, 8, 256}, // byte lanes, one round of 64 chunks on 256 wires
	{512, 2, 24},  // 2-bit chunks on a ragged wire count
	{96, 2, 16},   // 2-bit chunks with a partial final round
}

// adversarialBlocks are the corner patterns the skip variants
// special-case, emitted before random traffic so both codecs face them
// from power-on state and again with warm history.
func adversarialBlocks(blockBytes int) [][]byte {
	fill := func(v byte) []byte {
		b := make([]byte, blockBytes)
		for i := range b {
			b[i] = v
		}
		return b
	}
	sparse := make([]byte, blockBytes)
	sparse[0] = 0xF0
	return [][]byte{
		make([]byte, blockBytes), // all zero from power-on
		make([]byte, blockBytes), // exact zero repeat
		fill(0xFF),               // every chunk at maximum
		fill(0xFF),               // exact repeat
		fill(0x11),               // every chunk = 1 (minimum count window)
		fill(0xAA),
		sparse, // single non-zero chunk
		make([]byte, blockBytes),
	}
}

func trafficFor(blockBytes int, seed int64, n int) [][]byte {
	blocks := adversarialBlocks(blockBytes)
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		b := make([]byte, blockBytes)
		rng.Read(b)
		blocks = append(blocks, b)
	}
	// Exact repeat with warm random history.
	blocks = append(blocks, append([]byte(nil), blocks[len(blocks)-1]...))
	return blocks
}

// TestCodecMatchesReference is the kernel-vs-oracle cross-check over every
// kind and geometry, on adversarial plus random stateful traffic.
func TestCodecMatchesReference(t *testing.T) {
	t.Parallel()
	for _, g := range codecGeometries {
		for _, kind := range allKinds {
			fast, err := NewCodec(g.blockBits, g.chunkBits, g.wires, kind)
			if err != nil {
				t.Fatalf("%+v %v: %v", g, kind, err)
			}
			ref, err := newReferenceCodec(g.blockBits, g.chunkBits, g.wires, kind)
			if err != nil {
				t.Fatalf("%+v %v: %v", g, kind, err)
			}
			for i, block := range trafficFor(g.blockBits/8, 7, 24) {
				got, want := fast.Send(block), ref.Send(block)
				if got != want {
					t.Fatalf("%+v %v block %d: fast %+v != reference %+v",
						g, kind, i, got, want)
				}
				if !bytes.Equal(fast.LastDecoded(), block) {
					t.Fatalf("%+v %v block %d: lossy decode", g, kind, i)
				}
			}
		}
	}
}

// TestCodecMatchesTxRx holds the fast codec to the cycle-accurate
// hardware model: identical per-block costs and exact decode, per kind,
// across raw, spread and ragged lane loads.
func TestCodecMatchesTxRx(t *testing.T) {
	t.Parallel()
	geometries := []struct {
		blockBits, chunkBits, wires int
	}{
		{64, 4, 16},  // raw nibble words
		{128, 4, 32}, // raw nibble words, one round
		{64, 8, 8},   // byte lanes
		{96, 4, 16},  // partial final round with a partial tail word
		{64, 4, 8},   // ragged wire count
		{64, 8, 4},   // ragged for byte lanes
		{64, 2, 16},  // 2-bit chunks spread into nibbles
	}
	for _, g := range geometries {
		for _, kind := range allKinds {
			ch, err := NewChannel(g.blockBits, g.chunkBits, g.wires, kind, 1)
			if err != nil {
				t.Fatalf("%+v %v: %v", g, kind, err)
			}
			codec, err := NewCodec(g.blockBits, g.chunkBits, g.wires, kind)
			if err != nil {
				t.Fatalf("%+v %v: %v", g, kind, err)
			}
			for i, block := range trafficFor(g.blockBits/8, 13, 12) {
				gotCost, decoded := ch.Send(block)
				if !bytes.Equal(decoded, block) {
					t.Fatalf("%+v %v block %d: hardware decode %x != %x",
						g, kind, i, decoded, block)
				}
				wantCost := codec.Send(block)
				if gotCost != wantCost {
					t.Fatalf("%+v %v block %d: cycle-accurate %+v != analytic %+v",
						g, kind, i, gotCost, wantCost)
				}
			}
		}
	}
}

// TestCodecFastPathSelection pins the lane layout each geometry runs on,
// so a refactor cannot silently move the paper's design point off the
// raw word load, or pack a chunk width into the wrong lanes.
func TestCodecFastPathSelection(t *testing.T) {
	t.Parallel()
	cases := []struct {
		blockBits, chunkBits, wires int
		kind                        SkipKind
		laneBits, wordRound         int
		raw                         bool
	}{
		{512, 4, 128, SkipZero, 4, 8, true},
		{512, 4, 64, SkipLast, 4, 4, true},
		{512, 4, 128, SkipNone, 4, 8, true},
		{512, 4, 128, SkipAdaptive, 4, 8, true}, // adaptive via the bestWords mirror
		{512, 4, 48, SkipZero, 4, 3, true},      // partial final round
		{512, 8, 64, SkipZero, 8, 8, true},      // 8-bit chunks, byte lanes
		{512, 8, 48, SkipLast, 8, 6, true},      // 8-bit chunks with a partial round
		{512, 4, 24, SkipZero, 4, 2, false},     // ragged wire count: a short last word per round
		{512, 8, 28, SkipZero, 8, 4, false},     // ragged for byte lanes
		{512, 2, 128, SkipZero, 4, 8, false},    // 2-bit chunks spread into nibble lanes
		{512, 1, 64, SkipNone, 4, 4, false},     // 1-bit chunks spread into nibble lanes
		{384, 3, 48, SkipLast, 4, 3, false},     // 3-bit chunks: 48-bit lane words
		{384, 6, 32, SkipZero, 8, 4, false},     // 6-bit chunks: 48-bit lane words
	}
	for _, c := range cases {
		codec, err := NewCodec(c.blockBits, c.chunkBits, c.wires, c.kind)
		if err != nil {
			t.Fatal(err)
		}
		if codec.laneBits != c.laneBits || codec.wordRound != c.wordRound || codec.rawLoad != c.raw {
			t.Errorf("%d/%d/%d %v: lanes %d, words/round %d, raw %v; want %d, %d, %v",
				c.blockBits, c.chunkBits, c.wires, c.kind,
				codec.laneBits, codec.wordRound, codec.rawLoad, c.laneBits, c.wordRound, c.raw)
		}
	}
}

// TestCodecResetClearsKernelHistory: after Reset, the kernel's packed
// history (the last-value store, the adaptive best-value mirror) must
// forget exactly like the scalar policy, for every history-carrying kind
// and lane width.
func TestCodecResetClearsKernelHistory(t *testing.T) {
	t.Parallel()
	for _, kind := range []SkipKind{SkipLast, SkipAdaptive} {
		for _, chunkBits := range []int{4, 8} {
			fast, err := NewCodec(512, chunkBits, 128, kind)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := newReferenceCodec(512, chunkBits, 128, kind)
			if err != nil {
				t.Fatal(err)
			}
			block := make([]byte, 64)
			for i := range block {
				block[i] = 0xC3
			}
			fast.Send(block)
			ref.Send(block)
			fast.Reset()
			ref.Reset()
			for i, b := range trafficFor(64, 19, 6) {
				if got, want := fast.Send(b), ref.Send(b); got != want {
					t.Fatalf("%v k=%d post-reset block %d: fast %+v != reference %+v",
						kind, chunkBits, i, got, want)
				}
			}
			if fast.LastDecoded() == nil {
				t.Error("LastDecoded after Reset+Send should be the new block, got nil")
			}
		}
	}
}

// FuzzCodecVsReference drives arbitrary stateful traffic through the fast
// codec and the scalar oracle under every skip kind and a fuzz-chosen
// chunk width and wire count (16, 24 or 32 wires: whole nibble words, a
// ragged round and two-word rounds), asserting cost equality and lossless
// decode. Seeds are shared with FuzzChannelRoundTrip's corpus format.
func FuzzCodecVsReference(f *testing.F) {
	f.Add([]byte{0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00}, uint8(1))
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}, uint8(2))
	f.Add([]byte{0x53, 0xA1, 0x00, 0x10, 0x80, 0x7E, 0x01, 0xFE}, uint8(0))
	f.Add([]byte{0x12, 0x00, 0x05, 0x00, 0x00, 0x00, 0x00, 0x07}, uint8(3))

	f.Fuzz(func(t *testing.T, payload []byte, seed uint8) {
		if len(payload) < 8 {
			return
		}
		kind := SkipKind(int(seed) % 4)
		chunkBits := []int{4, 4, 1, 2, 8}[int(seed/4)%5] // bias toward the design point
		wires := []int{16, 24, 32}[int(seed/20)%3]

		fast, err := NewCodec(64, chunkBits, wires, kind)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := newReferenceCodec(64, chunkBits, wires, kind)
		if err != nil {
			t.Fatal(err)
		}
		// Slide an 8-byte window over the payload so history (last-value
		// stores, adaptive counters) evolves across sends.
		for off := 0; off+8 <= len(payload); off++ {
			block := payload[off : off+8]
			got, want := fast.Send(block), ref.Send(block)
			if got != want {
				t.Fatalf("%v k=%d w=%d off=%d: fast %+v != reference %+v",
					kind, chunkBits, wires, off, got, want)
			}
			if !bytes.Equal(fast.LastDecoded(), block) {
				t.Fatalf("%v k=%d w=%d off=%d: lossy decode", kind, chunkBits, wires, off)
			}
		}
	})
}

// FuzzCodecVsTxRx drives arbitrary stateful traffic through the fast codec
// and the cycle-accurate channel, asserting cost equality and lossless
// decode (FuzzChannelRoundTrip's single-block check, extended to stateful
// sequences and fuzz-chosen wire delay).
func FuzzCodecVsTxRx(f *testing.F) {
	f.Add([]byte{0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00}, uint8(1))
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}, uint8(2))
	f.Add([]byte{0x53, 0xA1, 0x00, 0x10, 0x80, 0x7E, 0x01, 0xFE}, uint8(0))
	f.Add([]byte{0x12, 0x00, 0x05, 0x00, 0x00, 0x00, 0x00, 0x07}, uint8(3))

	f.Fuzz(func(t *testing.T, payload []byte, seed uint8) {
		if len(payload) < 8 {
			return
		}
		kind := SkipKind(int(seed) % 4)
		delay := int(seed/4) % 3

		ch, err := NewChannel(64, 4, 16, kind, delay)
		if err != nil {
			t.Fatal(err)
		}
		codec, err := NewCodec(64, 4, 16, kind)
		if err != nil {
			t.Fatal(err)
		}
		for off := 0; off+8 <= len(payload); off += 8 {
			block := payload[off : off+8]
			gotCost, decoded := ch.Send(block)
			if !bytes.Equal(decoded, block) {
				t.Fatalf("%v delay=%d off=%d: decoded %x != sent %x",
					kind, delay, off, decoded, block)
			}
			wantCost := codec.Send(block)
			if gotCost != wantCost {
				t.Fatalf("%v delay=%d off=%d: cycle-accurate %+v != analytic %+v",
					kind, delay, off, gotCost, wantCost)
			}
		}
	})
}

var _ link.Decoder = (*referenceCodec)(nil)
