// Package reference holds the frozen bit-serial implementations of the
// literature codecs fpf and lwc, kept as oracles for their word-parallel
// Send paths and for the lowweight codebook. It is imported only by
// tests.
//
// Everything here is the codecs' original per-segment formulation: data
// bits move one at a time, and the enumerative walk visits all k+1
// codeword positions over its own cumulative binomial table. Nothing is
// shared with the kernels it checks (the lowweight tables and early-exit
// walks, Field/OrField, bitutil), so a bug there cannot cancel out of a
// comparison.
package reference

import (
	"bytes"
	"math/bits"
	"testing"

	"desc/internal/link"
)

// Cumulative returns the table s[m][b] of length-m binary vectors of
// weight <= b, for m <= k and b <= k/2.
func Cumulative(k int) [][]uint64 {
	w := k / 2
	s := make([][]uint64, k+1)
	for m := range s {
		s[m] = make([]uint64, w+1)
		for b := 0; b <= w; b++ {
			switch {
			case m == 0, b == 0:
				s[m][b] = 1
			default:
				s[m][b] = s[m-1][b] + s[m-1][b-1]
			}
		}
	}
	return s
}

// Encode is the full-length enumerative walk from the spare wire
// (position k) down: lo holds the k data-wire bits, ext the spare wire.
func Encode(s [][]uint64, k int, rank uint64) (lo uint64, ext bool) {
	budget := k / 2
	for p := k; p >= 0; p-- {
		if budget > 0 {
			below := s[p][budget]
			if rank >= below {
				rank -= below
				budget--
				if p == k {
					ext = true
				} else {
					lo |= 1 << uint(p)
				}
			}
		}
	}
	return lo, ext
}

// Decode is the inverse walk: it ranks a codeword back to its data word.
func Decode(s [][]uint64, k int, lo uint64, ext bool) uint64 {
	var rank uint64
	budget := k / 2
	for p := k; p >= 0; p-- {
		set := ext
		if p < k {
			set = lo&(1<<uint(p)) != 0
		}
		if set {
			rank += s[p][budget]
			budget--
		}
	}
	return rank
}

// loadBits reads count (<= 64) bits of block starting at bit offset off,
// LSB-first; bits beyond the block read as zero (idle padding wires).
func loadBits(block []byte, off, count int) uint64 {
	var v uint64
	for i := 0; i < count; i++ {
		bit := off + i
		if bit>>3 >= len(block) {
			break
		}
		if block[bit>>3]&(1<<(uint(bit)&7)) != 0 {
			v |= 1 << uint(i)
		}
	}
	return v
}

// storeBits writes count (<= 64) bits of v into block at bit offset off,
// LSB-first, ignoring bits beyond the block (padding wires).
func storeBits(block []byte, off, count int, v uint64) {
	for i := 0; i < count; i++ {
		bit := off + i
		if bit>>3 >= len(block) {
			break
		}
		mask := byte(1) << (uint(bit) & 7)
		if v&(1<<uint(i)) != 0 {
			block[bit>>3] |= mask
		} else {
			block[bit>>3] &^= mask
		}
	}
}

// Link is the reference codec. With Transition false it is fpf (the
// segment's wires are driven to the codeword); with Transition true it
// is lwc (the codeword is XORed onto the wires).
type Link struct {
	Transition bool

	blockBits, wires, k int
	s                   [][]uint64
	wireLo              []uint64
	wireExt             []bool
}

// New builds a reference link for a geometry the codecs accept: an
// even k in [2,64] that divides wires, and a whole number of bytes.
func New(blockBits, wires, k int, transition bool) *Link {
	return &Link{
		Transition: transition,
		blockBits:  blockBits,
		wires:      wires,
		k:          k,
		s:          Cumulative(k),
		wireLo:     make([]uint64, wires/k),
		wireExt:    make([]bool, wires/k),
	}
}

// Send transfers one block segment by segment and returns its cost and
// a fresh copy of the receiver's decoded block.
func (r *Link) Send(block []byte) (link.Cost, []byte) {
	decoded := make([]byte, len(block))
	beats := (r.blockBits + r.wires - 1) / r.wires
	var dataFlips, ctrlFlips uint64
	for b := 0; b < beats; b++ {
		for seg := range r.wireLo {
			off := b*r.wires + seg*r.k
			lo, ext := Encode(r.s, r.k, loadBits(block, off, r.k))
			if r.Transition {
				dataFlips += uint64(bits.OnesCount64(lo))
				r.wireLo[seg] ^= lo
				if ext {
					ctrlFlips++
					r.wireExt[seg] = !r.wireExt[seg]
				}
			} else {
				dataFlips += uint64(bits.OnesCount64(r.wireLo[seg] ^ lo))
				if r.wireExt[seg] != ext {
					ctrlFlips++
				}
				r.wireLo[seg], r.wireExt[seg] = lo, ext
			}
			storeBits(decoded, off, r.k, Decode(r.s, r.k, lo, ext))
		}
	}
	return link.Cost{
		Cycles: int64(beats),
		Flips:  link.FlipCount{Data: dataFlips, Control: ctrlFlips},
	}, decoded
}

// Compare sends blocks through the codec under test and a fresh
// reference of the same geometry side by side, failing t at the first
// block whose cost or decoded block differs or does not round-trip.
func Compare(t testing.TB, l link.Link, transition bool, blockBits, k int, blocks [][]byte) {
	t.Helper()
	dec := l.(link.Decoder)
	ref := New(blockBits, l.DataWires(), k, transition)
	for i, b := range blocks {
		got := l.Send(b)
		want, wantDec := ref.Send(b)
		if got != want {
			t.Fatalf("%s %d bits, %d wires, k=%d, block %d: cost %+v, reference %+v",
				l.Name(), blockBits, l.DataWires(), k, i, got, want)
		}
		if !bytes.Equal(dec.LastDecoded(), wantDec) {
			t.Fatalf("%s %d bits, %d wires, k=%d, block %d: decoded %x, reference %x",
				l.Name(), blockBits, l.DataWires(), k, i, dec.LastDecoded(), wantDec)
		}
		if !bytes.Equal(wantDec, b) {
			t.Fatalf("%s %d bits, %d wires, k=%d, block %d: reference itself is lossy",
				l.Name(), blockBits, l.DataWires(), k, i)
		}
	}
}

// Fuzz is the shared body of the codecs' differential fuzzers. width
// selects an even segment width in [2,64], segs a segment count in
// [1,6]; first (at most 64 bytes) sets the block size, so most inputs
// end in a partial final beat, and second is cut or zero-padded to it.
// The sequence first, second, first, zero exercises wire history.
func Fuzz(t *testing.T, newLink func(blockBits, wires, k int) (link.Link, error), transition bool,
	width, segs uint8, first, second []byte) {
	t.Helper()
	if len(first) == 0 || len(first) > 64 {
		return
	}
	k := 2 + 2*int(width%32)
	wires := k * (1 + int(segs%6))
	n := len(first)
	other := make([]byte, n)
	copy(other, second)
	l, err := newLink(8*n, wires, k)
	if err != nil {
		t.Fatalf("%d bits, %d wires, k=%d: %v", 8*n, wires, k, err)
	}
	Compare(t, l, transition, 8*n, k, [][]byte{first, other, first, make([]byte, n)})
}
