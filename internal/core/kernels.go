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
// those that do not — fall out of SWAR lane compares, popcounts and one
// lane fold per round (bitutil's SSE2 kernel on amd64, its SWAR tree
// elsewhere), which under zero skipping also counts the zero lanes. The
// count positions pos = v + [v < s]
// of a word's mismatching lanes are computed at once, never per lane.
// CountPos depends only on the values, not on the chunk width, so narrow
// chunks in wide lanes need no special case. A ragged wire count or a
// partial final round only shortens a round's last word; the layouts of
// a whole round and of the final round are fixed per codec (roundGeom).
// Padding lanes are zero-filled: the zero count takes them off again,
// and the history-carrying kinds copy the history into them so they
// match and keep it. Where chunks fill their lanes and rounds are whole
// words, the round-major layout is the block itself, so the kinds
// without history skip the packing and fold each round straight from
// the block's bytes (sendInPlace). reference_test.go freezes the
// original scalar encoder as an oracle so the kernel can never drift
// from it unnoticed.

// sendBlock encodes one block and returns its cost: the encoder Send
// and SendBlocks share. The history-free kinds on raw layouts read their
// rounds in place; every other codec packs the block into c.words first.
//
//desclint:hotpath runs once per block
func (c *Codec) sendBlock(block []byte) link.Cost {
	if c.inPlace {
		return c.sendInPlace(block)
	}
	var cost link.Cost
	c.load(block)
	for r := 0; r < c.chunker.Rounds(); r++ {
		cost.Add(c.sendRoundFast(r))
	}
	return cost
}

// sendInPlace encodes a block of a raw layout under SkipNone or SkipZero
// with the lane folds reading each round from the block's own bytes: no
// load and no copy, and the fold's wide loads never wait on the narrow
// stores a load would have just made. A round spans its words' bytes
// less the final word's padding lanes, which lie past the block's end,
// so only the final round can end inside a word; that word is loaded
// zero-padded, and the zero count takes its padding lanes off again.
//
//desclint:hotpath runs once per block
func (c *Codec) sendInPlace(block []byte) link.Cost {
	var cost link.Cost
	g := &c.full
	for r, rounds := 0, c.chunker.Rounds(); r < rounds; r++ {
		if r == rounds-1 {
			g = &c.final
		}
		n := g.words*8 - g.pad*c.laneBits/8
		// The folds are called directly: a wrapper choosing between
		// them would not inline.
		var peak uint16
		var zeros int
		if c.laneBits == 4 {
			peak, zeros = bitutil.MaxZerosNibbleBytes(block[:n&^7])
		} else {
			peak, zeros = bitutil.MaxZerosByteBytes(block[:n&^7])
		}
		maxCount := int(peak)
		if n&7 != 0 {
			m, z := c.maxZeros(bitutil.LoadWords(c.words[:1], block[n&^7:n]))
			maxCount, zeros = max(maxCount, m), zeros+z-g.pad
		}
		block = block[n:]
		unskipped := g.chunks
		if c.kind == SkipZero {
			unskipped -= zeros
		}
		cost.Add(c.roundCost(maxCount, g.chunks, unskipped, c.kind == SkipZero))
	}
	return cost
}

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
	k, lanes := c.chunker.ChunkBits(), c.lanes
	wires, chunks := c.chunker.Wires(), c.chunker.NumChunks()
	for r := 0; r < c.chunker.Rounds(); r++ {
		for j := 0; j < c.wordRound; j++ {
			first := r*wires + j*lanes // chunk index of lane 0
			var w uint64
			if n := min(lanes, wires-j*lanes, chunks-first); n > 0 {
				// The word read and the nibble spreads of 1- and
				// 2-bit chunks inline.
				if off := first * k; bitutil.WordBits(block, off, n*k) {
					w = bitutil.ReadWordBits(block, off, n*k)
				} else {
					w = bitutil.ReadBits(block, off, n*k)
				}
				switch {
				case c.laneBits == 8:
					w = bitutil.SpreadLanes(w, k, 8)
				case k == 2:
					w = bitutil.SpreadPairsToNibbles(w)
				case k == 1:
					w = bitutil.SpreadBitsToNibbles(w)
				default:
					w = bitutil.SpreadLanes(w, k, 4)
				}
			}
			c.words[r*c.wordRound+j] = w
		}
	}
}

// roundGeom is the word layout of one round, fixed per codec: every
// round but the final one has the full layout, and the final round may
// carry fewer chunks.
type roundGeom struct {
	chunks int // chunks in the round
	words  int // packed words the round fills
	tail   int // valid lanes of the round's final word
	pad    int // zero padding lanes after them
	// keep is the full-lane mask of the final word's padding lanes:
	// wires idle in this round, whose skip history must persist.
	keep uint64
}

// newRoundGeom lays a round of chunks out in words of lanes lanes of
// laneBits bits each.
func newRoundGeom(chunks, lanes, laneBits int) roundGeom {
	words := (chunks + lanes - 1) / lanes
	tail := chunks - (words-1)*lanes
	g := roundGeom{chunks: chunks, words: words, tail: tail, pad: lanes - tail}
	if g.pad > 0 {
		g.keep = ^uint64(0) << uint(tail*laneBits)
	}
	return g
}

// maxZeros returns the largest lane value in a round's packed words and
// how many of their lanes are zero, from one pass. Rounds that need only
// the largest value drop the count, which the SSE2 kernel takes in the
// same pass as the maximum.
//
//desclint:hotpath
func (c *Codec) maxZeros(words []uint64) (int, int) {
	if c.laneBits == 4 {
		m, z := bitutil.MaxZerosNibble(words)
		return int(m), z
	}
	m, z := bitutil.MaxZerosByte(words)
	return int(m), z
}

// countPositions returns, in each lane that neq marks (its lane-MSB
// mask of lanes where w differs from the skip values s), the count
// position of w's chunk, pos = v + [v < s] (CountPos for all lanes at
// once), and zero in every other lane.
//
//desclint:hotpath
func (c *Codec) countPositions(w, s, neq uint64) uint64 {
	sh := c.msbShift & 63 // the mask spares the check for shifts past 63
	up := bitutil.LaneLessMask(w, s, c.msb) >> sh
	return (w + up) & (neq | (neq - neq>>sh))
}

// sendRoundFast encodes one round word-parallel. The differential tests
// hold it bit-for-bit to both the scalar oracle and the cycle-accurate
// hardware model.
//
//desclint:hotpath runs once per round
func (c *Codec) sendRoundFast(round int) link.Cost {
	g := &c.full
	if round == c.chunker.Rounds()-1 {
		g = &c.final
	}
	words := c.words[round*c.wordRound:][:g.words]
	last := g.words - 1
	maxCount, unskipped := 0, 0

	switch c.kind {
	case SkipNone:
		// Every chunk toggles; only the largest value matters for the
		// round window. Padding lanes are zero and cannot raise it.
		unskipped = g.chunks
		maxCount, _ = c.maxZeros(words)

	case SkipZero:
		// Zero chunks are skipped, so the count position of a
		// transmitted chunk v is v itself and the window is the
		// largest lane in the round. Padding lanes are zero, so they
		// count among the zero lanes and are taken off again.
		var zeros int
		maxCount, zeros = c.maxZeros(words)
		unskipped = g.chunks - (zeros - g.pad)

	case SkipLast:
		// Chunks matching the per-wire last value are skipped. The
		// lane compare finds the mismatching lanes and their count
		// positions; one lane max over those gives the window.
		// Storing the new words *is* the policy update: the
		// last-value history lives in lastWords, and padding lanes of
		// the final word take their history, so they match and keep
		// it.
		words[last] |= c.lastWords[last] & g.keep
		pos := c.pos[:g.words]
		for i, w := range words {
			lw := c.lastWords[i]
			neq := bitutil.LaneNeqMask(w, lw, c.msb)
			unskipped += bits.OnesCount64(neq)
			pos[i] = c.countPositions(w, lw, neq)
			c.lastWords[i] = w
		}
		maxCount, _ = c.maxZeros(pos)

	case SkipAdaptive:
		// Chunks matching the estimator's per-wire best value are
		// skipped. The packed bestWords mirror supplies the whole
		// word of skip values for the compare; the frequency tables
		// then observe every valid lane, but the mirror is rewritten
		// only on neq lanes — observing the current best can never
		// change the best, so eq lanes leave it untouched. Wires are
		// disjoint across words, so interleaving one word's compare
		// with its observes is indistinguishable from the scalar
		// compare-all-then-observe-all order. Padding lanes take the
		// mirror's values, as in SkipLast, so they never mismatch.
		a := c.adaptive
		words[last] |= c.bestWords[last] & g.keep
		pos := c.pos[:g.words]
		laneVal := uint16(1)<<uint(c.laneBits) - 1
		laneMSB := uint64(1) << (c.msbShift & 63)
		for i, w := range words {
			bw := c.bestWords[i]
			neq := bitutil.LaneNeqMask(w, bw, c.msb)
			unskipped += bits.OnesCount64(neq)
			pos[i] = c.countPositions(w, bw, neq)
			valid := c.lanes
			if i == last {
				valid = g.tail
			}
			wire := i * c.lanes
			for l := 0; l < valid; l++ {
				sh := uint(l * c.laneBits)
				nb := a.observe(wire+l, uint16(w>>sh)&laneVal)
				if neq>>sh&laneMSB != 0 {
					bw = bw&^(uint64(laneVal)<<sh) | uint64(nb)<<sh
				}
			}
			c.bestWords[i] = bw
		}
		maxCount, _ = c.maxZeros(pos)

	default:
		panic("core: sendRoundFast called with unknown skip kind")
	}
	return c.roundCost(maxCount, g.chunks, unskipped, c.kind != SkipNone)
}
