package core

import (
	"math/bits"

	"desc/internal/bitutil"
	"desc/internal/link"
)

// This file is the word-parallel encode kernel of the DESC codec, the
// only encode path at every geometry. Chunks of up to 4 bits sit in the
// 16 nibble lanes of a uint64 word, wider chunks in its 8 byte lanes;
// round r of a block fills the words [r*wordRound, (r+1)*wordRound), lane
// l of word j carrying wire j*lanes+l. The per-round aggregates — how
// many chunks match the skip value, and the largest count position among
// those that do not — fall out of SWAR lane compares and popcounts.
// CountPos depends only on the values, not on the chunk width, so narrow
// chunks in wide lanes need no special case. A ragged wire count or a
// partial final round only shortens a round's last word, and a lane mask
// restricts the compares to the chunks that exist; padding lanes are
// zero-filled and never enter any aggregate. reference_test.go freezes
// the original scalar encoder as an oracle so the kernel can never drift
// from it unnoticed.

// load packs block into c.words, one round per run of wordRound words.
//
//desclint:hotpath called once per block
func (c *Codec) load(block []byte) {
	if c.rawLoad {
		// Chunks fill their lanes and rounds are whole words: the
		// round-major layout is the block itself.
		bitutil.LoadWords(c.words, block)
		return
	}
	k, lanes := c.chunker.ChunkBits(), 64/c.laneBits
	wires, chunks := c.chunker.Wires(), c.chunker.NumChunks()
	for r := 0; r < c.chunker.Rounds(); r++ {
		for j := 0; j < c.wordRound; j++ {
			first := r*wires + j*lanes // chunk index of lane 0
			var w uint64
			if n := min(lanes, wires-j*lanes, chunks-first); n > 0 {
				w = bitutil.SpreadLanes(bitutil.ReadBits(block, first*k, n*k), k, c.laneBits)
			}
			c.words[r*c.wordRound+j] = w
		}
	}
}

// maxLane returns the largest chunk value in a round's packed words.
//
//desclint:hotpath
func (c *Codec) maxLane(words []uint64) int {
	if c.laneBits == 4 {
		return int(bitutil.MaxNibble(words...))
	}
	return int(bitutil.MaxByte(words...))
}

// zeroMask returns the lane-MSB mask of zero lanes in a packed word.
//
//desclint:hotpath
func (c *Codec) zeroMask(w uint64) uint64 {
	if c.laneBits == 4 {
		return bitutil.NibbleZeroMask(w)
	}
	return bitutil.ByteZeroMask(w)
}

// neqMask returns the lane-MSB mask of differing lanes of two packed
// words.
//
//desclint:hotpath
func (c *Codec) neqMask(x, y uint64) uint64 {
	if c.laneBits == 4 {
		return bitutil.NibbleNeqMask(x, y)
	}
	return bitutil.ByteNeqMask(x, y)
}

// laneMask returns the full-lane mask of the first n lanes of a word.
//
//desclint:hotpath
func (c *Codec) laneMask(n int) uint64 {
	if c.laneBits == 4 {
		return bitutil.NibbleLaneMask(n)
	}
	return bitutil.ByteLaneMask(n)
}

// sendRoundFast encodes one round word-parallel. The differential tests
// hold it bit-for-bit to both the scalar oracle and the cycle-accurate
// hardware model.
//
//desclint:hotpath runs once per round
func (c *Codec) sendRoundFast(round int) link.Cost {
	lanes := 64 / c.laneBits
	laneVal := uint16(1)<<uint(c.laneBits) - 1
	wires := c.chunker.Wires()

	// The final round may be partial: fewer chunks than wires, so fewer
	// words, with the last word only partially valid.
	inRound := c.chunker.NumChunks() - round*wires
	if inRound > wires {
		inRound = wires
	}
	nWords := (inRound + lanes - 1) / lanes
	tail := inRound - (nWords-1)*lanes // valid lanes in the final word
	words := c.words[round*c.wordRound : round*c.wordRound+nWords]

	maxCount, unskipped := -1, 0

	switch c.kind {
	case SkipNone:
		// Every chunk toggles; only the largest value matters for the
		// round window. Padding lanes are zero and cannot raise it.
		unskipped = inRound
		maxCount = c.maxLane(words)

	case SkipZero:
		// Zero chunks are skipped, so the count position of a
		// transmitted chunk v is v itself and the window is the
		// largest lane in the round. Padding lanes are zero and must
		// not count as skipped, hence the lane mask on the final word.
		skipped := 0
		for i, w := range words {
			zm := c.zeroMask(w)
			if i == nWords-1 && tail < lanes {
				zm &= c.laneMask(tail)
			}
			skipped += bits.OnesCount64(zm)
		}
		unskipped = inRound - skipped
		if unskipped > 0 {
			maxCount = c.maxLane(words)
		}

	case SkipLast:
		// Chunks matching the per-wire last value are skipped. The
		// SWAR compare finds the mismatching lanes; only those need
		// the scalar CountPos, so skip-heavy traffic touches few
		// lanes. Storing the new words *is* the policy update: the
		// last-value history lives in lastWords, and idle lanes of a
		// partial final word keep their history.
		for i, w := range words {
			lw := c.lastWords[i]
			if i == nWords-1 && tail < lanes {
				vm := c.laneMask(tail)
				w = w&vm | lw&^vm
			}
			neq := c.neqMask(w, lw)
			unskipped += bits.OnesCount64(neq)
			for m := neq; m != 0; m &= m - 1 {
				sh := uint(bits.TrailingZeros64(m)) &^ uint(c.laneBits-1)
				v := uint16(w>>sh) & laneVal
				s := uint16(lw>>sh) & laneVal
				if p := CountPos(v, s); p > maxCount {
					maxCount = p
				}
			}
			c.lastWords[i] = w
		}

	case SkipAdaptive:
		// Chunks matching the estimator's per-wire best value are
		// skipped. The packed bestWords mirror supplies the whole
		// word of skip values for the compare; the frequency tables
		// then observe every valid lane, but the mirror is rewritten
		// only on neq lanes — observing the current best can never
		// change the best, so eq lanes leave it untouched. Wires are
		// disjoint across words, so interleaving one word's compare
		// with its observes is indistinguishable from the scalar
		// compare-all-then-observe-all order.
		a := c.adaptive
		for i, w := range words {
			bw := c.bestWords[i]
			valid := lanes
			if i == nWords-1 {
				valid = tail
			}
			neq := c.neqMask(w, bw)
			if valid < lanes {
				neq &= c.laneMask(valid)
			}
			unskipped += bits.OnesCount64(neq)
			for m := neq; m != 0; m &= m - 1 {
				sh := uint(bits.TrailingZeros64(m)) &^ uint(c.laneBits-1)
				v := uint16(w>>sh) & laneVal
				s := uint16(bw>>sh) & laneVal
				if p := CountPos(v, s); p > maxCount {
					maxCount = p
				}
			}
			wire := i * lanes
			laneMSB := uint64(1) << uint(c.laneBits-1)
			for l := 0; l < valid; l++ {
				sh := uint(l * c.laneBits)
				nb := a.observe(wire+l, uint16(w>>sh)&laneVal)
				if neq>>sh&laneMSB != 0 {
					bw = bw&^(uint64(laneVal)<<sh) | uint64(nb)<<sh
				}
			}
			c.bestWords[i] = bw
		}

	default:
		panic("core: sendRoundFast called with unknown skip kind")
	}
	return c.roundCost(maxCount, inRound, unskipped, c.kind != SkipNone)
}
