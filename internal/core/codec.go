package core

import (
	"fmt"

	"desc/internal/bitutil"
	"desc/internal/bus"
	"desc/internal/link"
)

func init() {
	register := func(name, label string, kind SkipKind, history link.HistoryClass) {
		link.Register(link.Descriptor{
			Name:  name,
			Label: label,
			Factory: func(s link.Spec) (link.Link, error) {
				return newCodecSpec(s, kind)
			},
			Traits: link.Traits{
				// TX+RX logic adds ~2 cycles at 3.2GHz (Figure 17),
				// and every wire terminates in a per-mat counter
				// interface.
				CodecCycles:     2,
				History:         history,
				DESCInterface:   true,
				UsesChunkBits:   true,
				DesignWires:     128,
				DesignChunkBits: 4,
			},
			Validate: validateChunks,
		})
	}
	register("desc-basic", "Basic DESC", SkipNone, link.HistoryNone)
	register("desc-zero", "Zero Skipped DESC", SkipZero, link.HistoryNone)
	register("desc-last", "Last Value Skipped DESC", SkipLast, link.HistoryLastValue)
	register("desc-adaptive", "Adaptive Skipped DESC", SkipAdaptive, link.HistoryAdaptive)
}

func newCodecSpec(s link.Spec, kind SkipKind) (link.Link, error) {
	return NewCodec(s.BlockBits, specChunkBits(s), s.DataWires, kind)
}

// specChunkBits applies the paper's design-point default. Only an exact
// zero means "use the default": a negative ChunkBits passes through so
// validateChunks rejects it, rather than being coerced into a geometry
// the caller never asked for (the default-masking bug baseline.segBits
// once had).
func specChunkBits(s link.Spec) int {
	if s.ChunkBits == 0 {
		return 4
	}
	return s.ChunkBits
}

// validateChunks is the descriptor-level Spec check for the DESC family:
// the chunk width must lie in the paper's explored [1,8] range and tile
// the block (the same constraints NewChunker enforces, surfaced with the
// scheme name before construction).
func validateChunks(s link.Spec) error {
	chunk := specChunkBits(s)
	if chunk < 1 || chunk > 8 {
		return fmt.Errorf("core: %s: chunk width %d outside [1,8]", s.Scheme, chunk)
	}
	if s.BlockBits%chunk != 0 {
		return fmt.Errorf("core: %s: block of %d bits not divisible by %d-bit chunks", s.Scheme, s.BlockBits, chunk)
	}
	return nil
}

// Codec is the fast, analytically exact DESC link used by the large
// experiment sweeps. It produces byte-identical costs to the cycle-accurate
// Transmitter/Receiver pair (cross-checked in tests) without simulating
// individual cycles.
//
// Send and SendBlocks are allocation-free in the steady state and share
// the word-parallel kernel in kernels.go at every geometry: chunks of up
// to 4 bits travel in the 4-bit lanes of uint64 words, wider ones in
// 8-bit lanes, and each round starts a fresh word. Skip matches are
// detected by SWAR lane compares instead of per-wire loops, a partial
// word is restricted with lane masks, and the adaptive estimator
// consults a packed best-value mirror. The kernel is pinned against the frozen scalar oracle in
// reference_test.go and the cycle-accurate hardware model by the
// differential tests.
type Codec struct {
	chunker *Chunker
	kind    SkipKind

	// laneBits is the lane width chunks are packed into (4 or 8), and
	// wordRound the number of uint64 words per round: a wire count that
	// is not a whole number of words only shortens each round's last
	// word. rawLoad reports that chunks fill their lanes and rounds are
	// whole words, so the block loads as raw words; inPlace that the kind
	// keeps no history as well, so rounds are read from the block itself.
	laneBits  int
	wordRound int
	rawLoad   bool
	inPlace   bool
	// lanes is the number of lanes per word, msb the word with every
	// lane's top bit set and msbShift that bit's position in a lane.
	lanes    int
	msb      uint64
	msbShift uint
	// full and final are the word layouts of a whole round and of the
	// block's final round, which may be partial.
	full, final roundGeom
	// words holds the current block's lane-packed chunks, round-major.
	words []uint64
	// pos holds a round's count positions for SkipLast and SkipAdaptive.
	pos []uint64
	// lastWords is the lane-packed per-wire last-value store for
	// SkipLast: storing a round's words is the policy update.
	lastWords []uint64
	// bestWords is the lane-packed mirror of the adaptive estimator's
	// per-wire best values for SkipAdaptive. The authoritative frequency
	// tables stay inside adaptive; the mirror is rewritten only on lanes
	// where the observed value differed from the skip value, because
	// observing the current best can never dethrone it.
	bestWords []uint64
	adaptive  *adaptiveSkip

	decoded []byte
}

// NewCodec builds a DESC codec for blocks of blockBits, chunks of chunkBits,
// the given number of data wires, and the given skipping variant.
func NewCodec(blockBits, chunkBits, wires int, kind SkipKind) (*Codec, error) {
	ch, err := NewChunker(blockBits, chunkBits, wires)
	if err != nil {
		return nil, err
	}
	c := &Codec{chunker: ch, kind: kind, laneBits: 8}
	if chunkBits <= 4 {
		c.laneBits = 4
	}
	lanes := 64 / c.laneBits
	c.lanes = lanes
	c.msb = bitutil.LaneMSB(c.laneBits)
	c.msbShift = uint(c.laneBits - 1)
	c.wordRound = (wires + lanes - 1) / lanes
	c.rawLoad = chunkBits == c.laneBits && wires%lanes == 0
	c.inPlace = c.rawLoad && (kind == SkipNone || kind == SkipZero)
	c.full = newRoundGeom(min(wires, ch.NumChunks()), lanes, c.laneBits)
	c.final = newRoundGeom(ch.NumChunks()-(ch.Rounds()-1)*wires, lanes, c.laneBits)
	c.words = make([]uint64, ch.Rounds()*c.wordRound)
	switch kind {
	case SkipLast:
		c.lastWords = make([]uint64, c.wordRound)
		c.pos = make([]uint64, c.wordRound)
	case SkipAdaptive:
		c.bestWords = make([]uint64, c.wordRound)
		c.pos = make([]uint64, c.wordRound)
		c.adaptive = newAdaptiveSkip(wires)
	case SkipNone, SkipZero:
		// No per-wire history: the skip value is absent or the
		// constant zero.
	default:
		return nil, fmt.Errorf("core: unknown skip kind %d", int(kind))
	}
	return c, nil
}

// Name implements link.Link.
func (c *Codec) Name() string {
	switch c.kind {
	case SkipZero:
		return "desc-zero"
	case SkipLast:
		return "desc-last"
	case SkipAdaptive:
		return "desc-adaptive"
	default:
		return "desc-basic"
	}
}

// DataWires implements link.Link.
func (c *Codec) DataWires() int { return c.chunker.Wires() }

// ExtraWires implements link.Link: the shared reset/skip strobe and the
// synchronization strobe.
func (c *Codec) ExtraWires() int { return 2 }

// BlockBytes implements link.Link.
func (c *Codec) BlockBytes() int { return c.chunker.BlockBits() / 8 }

// Chunker exposes the chunk geometry.
func (c *Codec) Chunker() *Chunker { return c.chunker }

// Kind returns the skipping variant.
func (c *Codec) Kind() SkipKind { return c.kind }

// Send implements link.Link. Cost is computed per round as documented in
// the package comment; the policy history advances exactly as the
// cycle-accurate hardware would.
//
//desclint:hotpath every simulated block crosses this path
func (c *Codec) Send(block []byte) link.Cost {
	if len(block) != c.BlockBytes() {
		panic(fmt.Sprintf("core: Send of %d-byte block on %d-byte link", len(block), c.BlockBytes()))
	}
	cost := c.sendBlock(block)
	c.record(block)
	return cost
}

// SendBlocks implements link.BlockSender. The blocks of payload go
// through the encoder Send uses, in order, but only the final block is
// recorded for LastDecoded. The analytic codec is lossless, so the
// receiver's view of the payload is the payload itself: decoded, when
// non-nil, receives one copy of it.
//
//desclint:hotpath every served block crosses this path
func (c *Codec) SendBlocks(payload []byte, per []link.Cost, decoded []byte) link.Cost {
	n := c.BlockBytes()
	if len(payload)%n != 0 {
		panic(fmt.Sprintf("core: SendBlocks of %d bytes on %d-byte blocks", len(payload), n))
	}
	var total link.Cost
	for i, off := 0, 0; off < len(payload); i, off = i+1, off+n {
		cost := c.sendBlock(payload[off : off+n])
		total.Add(cost)
		if per != nil {
			per[i] = cost
		}
	}
	if len(payload) > 0 {
		c.record(payload[len(payload)-n:])
	}
	copy(decoded, payload)
	return total
}

// record keeps a copy of block, the receiver's view of the last block
// sent, for LastDecoded.
func (c *Codec) record(block []byte) {
	if cap(c.decoded) < len(block) {
		c.decoded = make([]byte, len(block))
	}
	c.decoded = c.decoded[:len(block)]
	copy(c.decoded, block)
}

// roundCost assembles a round's link.Cost from its aggregates. maxCount
// is never negative: sendRoundFast starts it at 0 and every round holds
// at least one chunk (TestRoundCostNeverNegative). It is small enough to
// inline into the round loops.
func (c *Codec) roundCost(maxCount, inRound, unskipped int, skipping bool) link.Cost {
	// Basic DESC: reset at cycle 0, value v toggles at cycle v.
	cycles, control := int64(maxCount+1), uint64(1)
	if skipping {
		// Value-skipped DESC: open toggle, count c at cycle c-1. The
		// close toggle is needed only when chunks were actually
		// skipped (a reset/skip transition with no incomplete chunks
		// at the receiver already means "new transfer", Section 3.3);
		// it occupies a cycle distinct from the open toggle.
		cycles = int64(maxCount)
		if unskipped < inRound {
			cycles, control = max(cycles, 2), 2
		}
	}
	return link.Cost{Cycles: cycles, Flips: link.FlipCount{
		Data: uint64(unskipped), Control: control, Sync: bus.SyncFlipsFor(cycles)}}
}

// LastDecoded implements link.Decoder. DESC is lossless by construction in
// the analytic model; the cycle-accurate model in txrx.go validates the
// wire-level protocol.
//
// The returned slice aliases a buffer that the next Send overwrites and
// Reset invalidates; callers that retain it across calls must copy.
func (c *Codec) LastDecoded() []byte { return c.decoded }

// Reset implements link.Link. Every packed kernel mirror must forget
// history along with the adaptive tables so Reset equals a fresh instance
// (the linktest conformance harness pins this for the registry).
func (c *Codec) Reset() {
	if c.adaptive != nil {
		c.adaptive.Reset()
	}
	for i := range c.lastWords {
		c.lastWords[i] = 0
	}
	for i := range c.bestWords {
		c.bestWords[i] = 0
	}
	// Truncate rather than drop the decode mirror: the content is
	// invalidated but the capacity survives, so a pooled codec's
	// Reset-then-Send cycle stays allocation-free (the descserve data
	// plane Resets per request).
	c.decoded = c.decoded[:0]
}

var (
	_ link.Link        = (*Codec)(nil)
	_ link.Decoder     = (*Codec)(nil)
	_ link.BlockSender = (*Codec)(nil)
)
