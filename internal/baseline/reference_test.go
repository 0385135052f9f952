package baseline

// Scalar reference encoders for the word-based hot-path codecs. They are
// written from the schemes' definitions — one bool per wire, one beat at a
// time — with no shared kernel code, so a bug in the uint64 word paths
// (loadBits/storeBits, segment masking, popcount flip accounting) cannot
// cancel out of the comparison. The differential tests below and the
// fuzzers in fuzz_test.go hold Binary and DZC to these oracles on random,
// adversarial, and corpus traffic.

import (
	"bytes"
	"math/big"
	"math/rand"
	"testing"

	"desc/internal/link"
)

// beatsOf splits a block into beats of `wires` bits each. The final beat is
// zero-padded, matching a bus whose unused wires idle low. Levels are
// returned as bools in wire order.
func beatsOf(block []byte, wires int) [][]bool {
	nbits := len(block) * 8
	n := (nbits + wires - 1) / wires
	beats := make([][]bool, n)
	for b := range beats {
		levels := make([]bool, wires)
		for w := 0; w < wires; w++ {
			bit := b*wires + w
			if bit < nbits {
				levels[w] = block[bit>>3]&(1<<(uint(bit)&7)) != 0
			}
		}
		beats[b] = levels
	}
	return beats
}

// blockFromBeats reassembles a block of blockBits from decoded beats.
func blockFromBeats(beats [][]bool, wires, blockBits int) []byte {
	block := make([]byte, blockBits/8)
	for b, levels := range beats {
		for w := 0; w < wires; w++ {
			bit := b*wires + w
			if bit >= blockBits {
				break
			}
			if levels[w] {
				block[bit>>3] |= 1 << (uint(bit) & 7)
			}
		}
	}
	return block
}

// refBinary is the scalar oracle for Binary: persistent bool wire state,
// per-beat flips by direct comparison.
type refBinary struct {
	blockBits int
	wires     []bool
}

func newRefBinary(blockBits, wires int) *refBinary {
	return &refBinary{blockBits: blockBits, wires: make([]bool, wires)}
}

func (r *refBinary) send(block []byte) (link.Cost, []byte) {
	beats := beatsOf(block, len(r.wires))
	decoded := make([][]bool, len(beats))
	flips := uint64(0)
	for b, levels := range beats {
		for w, v := range levels {
			if r.wires[w] != v {
				r.wires[w] = v
				flips++
			}
		}
		decoded[b] = append([]bool(nil), r.wires...)
	}
	return link.Cost{Cycles: int64(len(beats)), Flips: link.FlipCount{Data: flips}},
		blockFromBeats(decoded, len(r.wires), r.blockBits)
}

// refDZC is the scalar oracle for DZC: per-segment zero indicators, data
// wires left untouched for all-zero segments.
type refDZC struct {
	blockBits int
	segBits   int
	wires     []bool
	zero      []bool
}

func newRefDZC(blockBits, wires, segBits int) *refDZC {
	return &refDZC{
		blockBits: blockBits,
		segBits:   segBits,
		wires:     make([]bool, wires),
		zero:      make([]bool, wires/segBits),
	}
}

func (r *refDZC) send(block []byte) (link.Cost, []byte) {
	beats := beatsOf(block, len(r.wires))
	decoded := make([][]bool, len(beats))
	var dataFlips, ctrlFlips uint64
	for b, levels := range beats {
		view := make([]bool, len(r.wires))
		for s := 0; s < len(r.zero); s++ {
			lo, hi := s*r.segBits, (s+1)*r.segBits
			allZero := true
			for w := lo; w < hi; w++ {
				if levels[w] {
					allZero = false
					break
				}
			}
			if allZero {
				if !r.zero[s] {
					r.zero[s] = true
					ctrlFlips++
				}
				// Data wires keep their old levels; the receiver
				// reads the segment as zero from the indicator.
				continue
			}
			if r.zero[s] {
				r.zero[s] = false
				ctrlFlips++
			}
			for w := lo; w < hi; w++ {
				if r.wires[w] != levels[w] {
					r.wires[w] = levels[w]
					dataFlips++
				}
				view[w] = r.wires[w]
			}
		}
		decoded[b] = view
	}
	return link.Cost{
			Cycles: int64(len(beats)),
			Flips:  link.FlipCount{Data: dataFlips, Control: ctrlFlips},
		},
		blockFromBeats(decoded, len(r.wires), r.blockBits)
}

// refBusInvert is the scalar oracle for the three BusInvert variants:
// persistent bool wire state, per-segment Hamming counts by direct
// comparison, and a big.Int base-3 mode field — no shared kernel code
// with the word implementation.
type refBusInvert struct {
	blockBits int
	segBits   int
	mode      InvertMode
	wires     []bool
	invert    []bool
	zero      []bool
	modeBus   []bool
}

func newRefBusInvert(blockBits, wires, segBits int, mode InvertMode) *refBusInvert {
	segs := wires / segBits
	r := &refBusInvert{
		blockBits: blockBits,
		segBits:   segBits,
		mode:      mode,
		wires:     make([]bool, wires),
		invert:    make([]bool, segs),
		zero:      make([]bool, segs),
	}
	if mode == InvertEncodedZeroSkip {
		r.modeBus = make([]bool, encodedModeWires(segs))
	}
	return r
}

func (r *refBusInvert) send(block []byte) (link.Cost, []byte) {
	beats := beatsOf(block, len(r.wires))
	decoded := make([][]bool, len(beats))
	segs := len(r.invert)
	var dataFlips, ctrlFlips uint64
	for b, levels := range beats {
		modes := make([]int, segs)
		for s := 0; s < segs; s++ {
			lo, hi := s*r.segBits, (s+1)*r.segBits
			hd, allZero := 0, true
			for w := lo; w < hi; w++ {
				if levels[w] != r.wires[w] {
					hd++
				}
				if levels[w] {
					allZero = false
				}
			}
			hdInv := r.segBits - hd

			m := modeNormal
			switch r.mode {
			case InvertOnly:
				costN, costI := hd, hdInv
				if r.invert[s] {
					costN++
				} else {
					costI++
				}
				if costI < costN {
					m = modeInvert
				}
			case InvertZeroSkip:
				costN := hd + boolFlip(r.invert[s], false) + boolFlip(r.zero[s], false)
				costI := hdInv + boolFlip(r.invert[s], true) + boolFlip(r.zero[s], false)
				if allZero && boolFlip(r.zero[s], true) <= costN && boolFlip(r.zero[s], true) <= costI {
					m = modeSkip
				} else if costI < costN {
					m = modeInvert
				}
			default: // InvertEncodedZeroSkip
				if allZero {
					m = modeSkip
				} else if hdInv < hd {
					m = modeInvert
				}
			}
			modes[s] = m

			switch m {
			case modeSkip:
				if r.mode == InvertZeroSkip {
					ctrlFlips += uint64(boolFlip(r.zero[s], true))
					r.zero[s] = true
				}
				continue // data and invert wires untouched
			case modeInvert:
				if r.mode != InvertEncodedZeroSkip {
					ctrlFlips += uint64(boolFlip(r.invert[s], true))
					r.invert[s] = true
				}
			default:
				if r.mode != InvertEncodedZeroSkip {
					ctrlFlips += uint64(boolFlip(r.invert[s], false))
					r.invert[s] = false
				}
			}
			if r.mode == InvertZeroSkip {
				ctrlFlips += uint64(boolFlip(r.zero[s], false))
				r.zero[s] = false
			}
			for w := lo; w < hi; w++ {
				want := levels[w]
				if m == modeInvert {
					want = !want
				}
				if r.wires[w] != want {
					r.wires[w] = want
					dataFlips++
				}
			}
		}
		if r.mode == InvertEncodedZeroSkip {
			ctrlFlips += r.driveModeField(modes)
		}
		// Receiver view: skipped segments read as zero, inverted
		// segments as the complement of the wires.
		view := make([]bool, len(r.wires))
		for s := 0; s < segs; s++ {
			m := modes[s]
			for w := s * r.segBits; w < (s+1)*r.segBits; w++ {
				switch m {
				case modeSkip:
					view[w] = false
				case modeInvert:
					view[w] = !r.wires[w]
				default:
					view[w] = r.wires[w]
				}
			}
		}
		decoded[b] = view
	}
	return link.Cost{
			Cycles: int64(len(beats)),
			Flips:  link.FlipCount{Data: dataFlips, Control: ctrlFlips},
		},
		blockFromBeats(decoded, len(r.wires), r.blockBits)
}

// driveModeField encodes the base-3 mode vector as one big integer and
// drives its binary digits, independently of the codec's machine-word
// and long-division implementations.
func (r *refBusInvert) driveModeField(modes []int) uint64 {
	v := new(big.Int)
	three := big.NewInt(3)
	for i := len(modes) - 1; i >= 0; i-- {
		v.Mul(v, three)
		v.Add(v, big.NewInt(int64(modes[i])))
	}
	flips := uint64(0)
	for b := range r.modeBus {
		level := v.Bit(b) == 1
		if r.modeBus[b] != level {
			r.modeBus[b] = level
			flips++
		}
	}
	return flips
}

// boolFlip returns 1 if driving a wire from cur to want would flip it.
func boolFlip(cur, want bool) int {
	if cur != want {
		return 1
	}
	return 0
}

// referenceGeometries are the shapes the differential tests sweep: the
// paper's design points plus ragged widths that exercise the word paths'
// tail handling (wires not a multiple of 64, segments of a whole word,
// multi-word segments) and dense mode fields on both sides of the
// one-word limit.
var referenceGeometries = []struct {
	blockBits, wires, segBits int
}{
	{512, 64, 8},
	{512, 128, 8},
	{512, 128, 64},
	{512, 256, 128}, // multi-word segments
	{512, 16, 4},
	{64, 16, 8},
	{64, 24, 8}, // wires not a multiple of 16
	{128, 8, 8},
	{512, 64, 4},  // 16 segments: the bic-ezs mode field in one word
	{512, 128, 2}, // 64 segments: past the one-word mode field (3^40 < 2^64 < 3^41)
}

// differentialBlocks builds the shared traffic pattern: adversarial
// corners first, then seeded random blocks, with an exact repeat at the
// end so indicator-wire hysteresis is exercised.
func differentialBlocks(blockBytes int, seed int64) [][]byte {
	fill := func(v byte) []byte {
		b := make([]byte, blockBytes)
		for i := range b {
			b[i] = v
		}
		return b
	}
	sparse := make([]byte, blockBytes)
	sparse[blockBytes/2] = 0x01
	blocks := [][]byte{
		make([]byte, blockBytes),
		fill(0xFF),
		fill(0xFF),
		fill(0xAA),
		fill(0x55),
		sparse,
		make([]byte, blockBytes),
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < 10; i++ {
		b := make([]byte, blockBytes)
		rng.Read(b)
		blocks = append(blocks, b)
	}
	blocks = append(blocks, append([]byte(nil), blocks[len(blocks)-1]...))
	return blocks
}

func TestBinaryMatchesReference(t *testing.T) {
	t.Parallel()
	for _, g := range referenceGeometries {
		fast, err := NewBinary(g.blockBits, g.wires)
		if err != nil {
			t.Fatalf("%+v: %v", g, err)
		}
		ref := newRefBinary(g.blockBits, g.wires)
		for i, block := range differentialBlocks(g.blockBits/8, 101) {
			got := fast.Send(block)
			want, wantDec := ref.send(block)
			if got != want {
				t.Fatalf("%+v block %d: fast %+v != reference %+v", g, i, got, want)
			}
			if !bytes.Equal(fast.LastDecoded(), wantDec) {
				t.Fatalf("%+v block %d: fast decode %x != reference %x",
					g, i, fast.LastDecoded(), wantDec)
			}
			if !bytes.Equal(wantDec, block) {
				t.Fatalf("%+v block %d: reference itself is lossy", g, i)
			}
		}
	}
}

func TestDZCMatchesReference(t *testing.T) {
	t.Parallel()
	for _, g := range referenceGeometries {
		if g.wires%g.segBits != 0 {
			continue
		}
		fast, err := NewDZC(g.blockBits, g.wires, g.segBits)
		if err != nil {
			// Geometries the word codec rejects (segments straddling
			// words) are outside its contract; skip.
			continue
		}
		ref := newRefDZC(g.blockBits, g.wires, g.segBits)
		for i, block := range differentialBlocks(g.blockBits/8, 202) {
			got := fast.Send(block)
			want, wantDec := ref.send(block)
			if got != want {
				t.Fatalf("%+v block %d: fast %+v != reference %+v", g, i, got, want)
			}
			if !bytes.Equal(fast.LastDecoded(), wantDec) {
				t.Fatalf("%+v block %d: fast decode %x != reference %x",
					g, i, fast.LastDecoded(), wantDec)
			}
		}
	}
}

func TestBusInvertMatchesReference(t *testing.T) {
	t.Parallel()
	for _, mode := range []InvertMode{InvertOnly, InvertZeroSkip, InvertEncodedZeroSkip} {
		for _, g := range referenceGeometries {
			if g.wires%g.segBits != 0 {
				continue
			}
			fast, err := NewBusInvert(g.blockBits, g.wires, g.segBits, mode)
			if err != nil {
				// Geometries the word codec rejects (segments straddling
				// words) are outside its contract; skip.
				continue
			}
			ref := newRefBusInvert(g.blockBits, g.wires, g.segBits, mode)
			for i, block := range differentialBlocks(g.blockBits/8, 303) {
				got := fast.Send(block)
				want, wantDec := ref.send(block)
				if got != want {
					t.Fatalf("%s %+v block %d: fast %+v != reference %+v", mode, g, i, got, want)
				}
				if !bytes.Equal(fast.LastDecoded(), wantDec) {
					t.Fatalf("%s %+v block %d: fast decode %x != reference %x",
						mode, g, i, fast.LastDecoded(), wantDec)
				}
				if !bytes.Equal(wantDec, block) {
					t.Fatalf("%s %+v block %d: reference itself is lossy", mode, g, i)
				}
			}
		}
	}
}

// FuzzBaselineVsReference holds the word-based Binary and DZC codecs to
// their scalar oracles on arbitrary two-block sequences (the corpus is
// shared with FuzzSchemesDecode, whose seeds live in testdata/fuzz).
func FuzzBaselineVsReference(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0}, []byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(
		[]byte{0xFF, 0x00, 0xFF, 0x00, 0xAA, 0x55, 0xAA, 0x55},
		[]byte{0x00, 0xFF, 0x00, 0xFF, 0x55, 0xAA, 0x55, 0xAA},
	)
	f.Fuzz(func(t *testing.T, first, second []byte) {
		if len(first) < 8 || len(second) < 8 {
			return
		}
		seq := [][]byte{first[:8], second[:8], first[:8]}

		fastB, err := NewBinary(64, 24)
		if err != nil {
			t.Fatal(err)
		}
		refB := newRefBinary(64, 24)
		for i, block := range seq {
			got := fastB.Send(block)
			want, _ := refB.send(block)
			if got != want {
				t.Fatalf("binary block %d: fast %+v != reference %+v", i, got, want)
			}
		}

		fastD, err := NewDZC(64, 16, 8)
		if err != nil {
			t.Fatal(err)
		}
		refD := newRefDZC(64, 16, 8)
		for i, block := range seq {
			got := fastD.Send(block)
			want, wantDec := refD.send(block)
			if got != want {
				t.Fatalf("dzc block %d: fast %+v != reference %+v", i, got, want)
			}
			if !bytes.Equal(fastD.LastDecoded(), wantDec) {
				t.Fatalf("dzc block %d: decode mismatch", i)
			}
		}

		for _, mode := range []InvertMode{InvertOnly, InvertZeroSkip, InvertEncodedZeroSkip} {
			fastI, err := NewBusInvert(64, 16, 8, mode)
			if err != nil {
				t.Fatal(err)
			}
			refI := newRefBusInvert(64, 16, 8, mode)
			for i, block := range seq {
				got := fastI.Send(block)
				want, wantDec := refI.send(block)
				if got != want {
					t.Fatalf("%s block %d: fast %+v != reference %+v", mode, i, got, want)
				}
				if !bytes.Equal(fastI.LastDecoded(), wantDec) {
					t.Fatalf("%s block %d: decode mismatch", mode, i)
				}
			}
		}
	})
}
