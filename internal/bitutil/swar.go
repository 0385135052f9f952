package bitutil

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// This file holds the word-parallel (SWAR) kernels behind the hot encode
// and decode paths. A uint64 word is split into equal lanes: DESC packs
// chunks into 4-bit nibble or 8-bit byte lanes, and the segmented bus
// codecs treat each bus segment of 1 to 64 bits as one lane. Per-round
// chunk comparisons and per-segment Hamming distances then become a
// handful of bitwise operations plus popcounts instead of per-wire
// loops. Every kernel here is pinned against the scalar implementations
// by the differential tests in this package, internal/core and
// internal/baseline.

// LoadWords packs block into little-endian uint64 words (bit i of the block
// is bit i%64 of word i/64, matching the repository's bit order), reusing
// dst's backing array when it is large enough. A partial final word is
// zero-padded. A 64-byte block, the paper's 512-bit cache line, loads
// as eight unrolled word loads with no per-word bounds checks.
//
//desclint:hotpath called once per block by the DESC codec
func LoadWords(dst []uint64, block []byte) []uint64 {
	n := (len(block) + 7) / 8
	if cap(dst) < n {
		dst = make([]uint64, n)
	}
	dst = dst[:n]
	if len(block) == 64 {
		b, d := (*[64]byte)(block), (*[8]uint64)(dst)
		d[0] = binary.LittleEndian.Uint64(b[0:8])
		d[1] = binary.LittleEndian.Uint64(b[8:16])
		d[2] = binary.LittleEndian.Uint64(b[16:24])
		d[3] = binary.LittleEndian.Uint64(b[24:32])
		d[4] = binary.LittleEndian.Uint64(b[32:40])
		d[5] = binary.LittleEndian.Uint64(b[40:48])
		d[6] = binary.LittleEndian.Uint64(b[48:56])
		d[7] = binary.LittleEndian.Uint64(b[56:64])
		return dst
	}
	i := 0
	for ; i+8 <= len(block); i += 8 {
		dst[i>>3] = binary.LittleEndian.Uint64(block[i:])
	}
	if i < len(block) {
		var w uint64
		for j := 0; i+j < len(block); j++ {
			w |= uint64(block[i+j]) << (8 * uint(j))
		}
		dst[i>>3] = w
	}
	return dst
}

// LaneMSB returns the word with the top bit of every k-bit lane set, for
// a lane width k that divides 64.
func LaneMSB(k int) uint64 {
	if k >= 64 {
		return 1 << 63
	}
	return ^uint64(0) / (1<<uint(k) - 1) << uint(k-1)
}

// LaneZeroMask returns the lanes of x that are zero as a lane-MSB mask,
// where msb = LaneMSB(k) fixes the lane width k. The per-lane carry trick
// is exact for every width: adding the low k-1 ones to a lane's low k-1
// bits carries into its top bit iff they are non-zero, OR-ing in x adds
// the top bit itself, and no lane carries into the next because
// 2*(2^(k-1)-1) < 2^k. For k = 1 it reduces to ^x.
//
//desclint:hotpath
func LaneZeroMask(x, msb uint64) uint64 {
	return ^(((x &^ msb) + ^msb) | x) & msb
}

// LaneNeqMask returns the lanes where x and y differ as a lane-MSB mask,
// where msb = LaneMSB(k) fixes the lane width k. Iterate its set bits
// with bits.TrailingZeros64 to visit only the differing lanes.
//
//desclint:hotpath
func LaneNeqMask(x, y, msb uint64) uint64 {
	return ^LaneZeroMask(x^y, msb) & msb
}

// LaneLessMask returns the lanes where x is below y as a lane-MSB mask,
// where msb = LaneMSB(k) fixes the lane width k. The lanes' low k-1 bits
// compare through the borrow of (x|msb) - (y&^msb), whose top lane bit
// is set iff x's low bits are at least y's; where the top bits of x and
// y differ, they decide alone.
//
//desclint:hotpath
func LaneLessMask(x, y, msb uint64) uint64 {
	ge := (x | msb) - (y &^ msb)
	return (^x&y | ^(x^y)&^ge) & msb
}

// LaneFill widens a lane-MSB mask of k-bit lanes to full lanes: every
// lane whose top bit is set in m becomes all ones. Lanes do not overlap,
// so the multiply cannot carry between them.
//
//desclint:hotpath
func LaneFill(m uint64, k int) uint64 {
	return (m >> uint(k-1)) * (1<<uint(k) - 1)
}

// LanePopcounts returns a word whose k-bit lanes hold the population
// counts of the corresponding lanes of x, for k dividing 64: the classic
// SWAR popcount stopped at the lane width, so one call yields the
// Hamming distances of every segment of a bus word.
//
//desclint:hotpath
func LanePopcounts(x uint64, k int) uint64 {
	if k >= 2 {
		x -= x >> 1 & 0x5555555555555555
	}
	if k >= 4 {
		x = x&0x3333333333333333 + x>>2&0x3333333333333333
	}
	if k >= 8 {
		x = (x + x>>4) & 0x0F0F0F0F0F0F0F0F
	}
	if k >= 16 {
		x = (x + x>>8) & 0x00FF00FF00FF00FF
	}
	if k >= 32 {
		x = (x + x>>16) & 0x0000FFFF0000FFFF
	}
	if k >= 64 {
		x = (x + x>>32) & 0xFFFFFFFF
	}
	return x
}

// The lane-max folds compare values with one spare bit above them:
// nibbles in byte lanes, bytes in 16-bit lanes. For such lanes the flag
// bit of (a|flag)-b is set iff a >= b; no borrow crosses lanes because
// every lane of a|flag exceeds every lane of b. ge - ge>>half widens the
// compare bit to the value bits without a multiply. A round's words fold
// as a balanced tree, eight words at a time, so eight words take three
// dependent compares after their halves meet instead of a chain of
// sixteen, and the horizontal fold across the last word's lanes follows.

// nibbleMax returns the lane-wise maximum of two words of nibble values
// in byte lanes (bits 4-7 of every byte clear).
func nibbleMax(a, b uint64) uint64 {
	const flag = 0x1010101010101010
	ge := ((a | flag) - b) & flag
	return b ^ (a^b)&(ge-ge>>4)
}

// nibbleHalves returns the byte-lane maximum of x's low and high nibbles.
func nibbleHalves(x uint64) uint64 {
	const low = 0x0F0F0F0F0F0F0F0F
	return nibbleMax(x&low, x>>4&low)
}

// MaxZerosNibble returns the maximum 4-bit nibble value over the words
// xs and how many of their nibbles are zero: a DESC round's window and
// its zero-skipped chunks from one pass.
//
//desclint:hotpath
func MaxZerosNibble(xs []uint64) (uint16, int) {
	return nibbleKernel(xs)
}

// MaxZerosNibbleBytes is MaxZerosNibble over the little-endian words of
// b, read in place: len(b) must be a multiple of 8, and b may start at
// any address. The maximum and the zero count do not depend on the order
// of the lanes, so the byte order cannot change them.
//
//desclint:hotpath
func MaxZerosNibbleBytes(b []byte) (uint16, int) {
	return nibbleKernelBytes(b)
}

// foldBytes runs fold, nibbleFold or byteFold, over the little-endian
// words of b, eight at a time from a stack buffer: the portable form of
// the byte entries, and the oracle of the SSE2 ones.
func foldBytes(b []byte, fold func([]uint64) (uint16, int)) (uint16, int) {
	var (
		buf   [8]uint64
		peak  uint16
		zeros int
	)
	for len(b) >= 8 {
		n := min(len(b)/8, len(buf))
		for i := range buf[:n] {
			buf[i] = binary.LittleEndian.Uint64(b[8*i:])
		}
		m, z := fold(buf[:n])
		peak, zeros = max(peak, m), zeros+z
		b = b[8*n:]
	}
	return peak, zeros
}

// nibbleFold is the portable form of MaxZerosNibble: the SWAR tree every
// GOARCH keeps, and the oracle the SSE2 kernel is tested against.
func nibbleFold(xs []uint64) (uint16, int) {
	z := 0
	for _, x := range xs {
		z += bits.OnesCount64(LaneZeroMask(x, 0x8888888888888888))
	}
	h, m2 := nibbleHalves, nibbleMax
	var m uint64
	for ; len(xs) >= 8; xs = xs[8:] {
		m = m2(m, m2(
			m2(m2(h(xs[0]), h(xs[1])), m2(h(xs[2]), h(xs[3]))),
			m2(m2(h(xs[4]), h(xs[5])), m2(h(xs[6]), h(xs[7])))))
	}
	if len(xs) >= 4 {
		m = m2(m, m2(m2(h(xs[0]), h(xs[1])), m2(h(xs[2]), h(xs[3]))))
		xs = xs[4:]
	}
	if len(xs) >= 2 {
		m = m2(m, m2(h(xs[0]), h(xs[1])))
		xs = xs[2:]
	}
	if len(xs) == 1 {
		m = m2(m, h(xs[0]))
	}
	m = m2(m, m>>32)
	m = m2(m, m>>16)
	m = m2(m, m>>8)
	return uint16(m & 0xF), z
}

// byteMax returns the lane-wise maximum of two words of byte values in
// 16-bit lanes (bits 8-15 of every lane clear).
func byteMax(a, b uint64) uint64 {
	const flag = 0x0100010001000100
	ge := ((a | flag) - b) & flag
	return b ^ (a^b)&(ge-ge>>8)
}

// byteHalves returns the 16-bit-lane maximum of x's low and high bytes.
func byteHalves(x uint64) uint64 {
	const low = 0x00FF00FF00FF00FF
	return byteMax(x&low, x>>8&low)
}

// MaxZerosByte is MaxZerosNibble for byte lanes.
//
//desclint:hotpath
func MaxZerosByte(xs []uint64) (uint16, int) {
	return byteKernel(xs)
}

// MaxZerosByteBytes is MaxZerosNibbleBytes for byte lanes.
//
//desclint:hotpath
func MaxZerosByteBytes(b []byte) (uint16, int) {
	return byteKernelBytes(b)
}

// byteFold is nibbleFold for byte lanes, folded with the bytes in
// 16-bit lanes so the compare stays exact for the full 0..255 range. It
// repeats nibbleFold's tree rather than sharing it so that each
// compiles with its lane constants and shifts as immediates.
func byteFold(xs []uint64) (uint16, int) {
	z := 0
	for _, x := range xs {
		z += bits.OnesCount64(LaneZeroMask(x, 0x8080808080808080))
	}
	h, m2 := byteHalves, byteMax
	var m uint64
	for ; len(xs) >= 8; xs = xs[8:] {
		m = m2(m, m2(
			m2(m2(h(xs[0]), h(xs[1])), m2(h(xs[2]), h(xs[3]))),
			m2(m2(h(xs[4]), h(xs[5])), m2(h(xs[6]), h(xs[7])))))
	}
	if len(xs) >= 4 {
		m = m2(m, m2(m2(h(xs[0]), h(xs[1])), m2(h(xs[2]), h(xs[3]))))
		xs = xs[4:]
	}
	if len(xs) >= 2 {
		m = m2(m, m2(h(xs[0]), h(xs[1])))
		xs = xs[2:]
	}
	if len(xs) == 1 {
		m = m2(m, h(xs[0]))
	}
	m = m2(m, m>>32)
	m = m2(m, m>>16)
	return uint16(m & 0xFF), z
}

// StoreWords writes the little-endian uint64 words back into block — the
// exact inverse of LoadWords. len(block) selects how many bytes are
// written; words must cover the block, and bits beyond the block in a
// partial final word are ignored.
//
//desclint:hotpath called once per decoded block
func StoreWords(block []byte, words []uint64) {
	if need := (len(block) + 7) / 8; len(words) < need {
		panic(fmt.Sprintf("bitutil: StoreWords of %d words into %d-byte block", len(words), len(block)))
	}
	i := 0
	for ; i+8 <= len(block); i += 8 {
		binary.LittleEndian.PutUint64(block[i:], words[i>>3])
	}
	if i < len(block) {
		w := words[i>>3]
		for j := 0; i+j < len(block); j++ {
			block[i+j] = byte(w >> (8 * uint(j)))
		}
	}
}

// PackChunks packs contiguous k-bit chunks into little-endian uint64
// words in bit order — the word-level inverse of AppendChunks, reusing
// dst's backing array when it is large enough. Together with StoreWords
// it is the receiver-side reassembly kernel: chunk registers to wire
// words to bytes without per-bit stores. Padding bits of a partial final
// word are zero.
//
//desclint:hotpath called once per decoded block
func PackChunks(dst []uint64, chunks []uint16, k int) []uint64 {
	if k < 1 || k > 16 {
		panic(fmt.Sprintf("bitutil: chunk width %d out of range [1,16]", k))
	}
	nbits := len(chunks) * k
	n := (nbits + 63) / 64
	if cap(dst) < n {
		dst = make([]uint64, n)
	}
	dst = dst[:n]
	for i := range dst {
		dst[i] = 0
	}
	switch k {
	case 4:
		for i, c := range chunks {
			dst[i>>4] |= uint64(c&0xF) << (4 * (uint(i) & 15))
		}
	case 8:
		for i, c := range chunks {
			dst[i>>3] |= uint64(c&0xFF) << (8 * (uint(i) & 7))
		}
	default:
		for i, c := range chunks {
			v := uint64(c) & ((1 << uint(k)) - 1)
			off := i * k
			w, sh := off>>6, uint(off&63)
			dst[w] |= v << sh
			if sh+uint(k) > 64 {
				dst[w+1] |= v >> (64 - sh)
			}
		}
	}
	return dst
}

// LoadBits fills dst words with `count` bits of block starting at bit
// offset off; bits beyond the block pad with zero (idle wires). Offsets
// and counts must be byte aligned (bus widths are multiples of 8), so
// words assemble directly from bytes — whole words in a single unaligned
// load on the hot path, byte by byte at the ragged tail. This is the
// beat-load kernel shared by the word-based baseline codecs.
//
//desclint:hotpath called once per beat by the baseline codecs
func LoadBits(dst []uint64, block []byte, off, count int) {
	byteOff := off >> 3
	for i := range dst {
		base := byteOff + i*8
		if i*64+56 < count && base+8 <= len(block) {
			dst[i] = binary.LittleEndian.Uint64(block[base:])
			continue
		}
		var w uint64
		for j := 0; j < 8; j++ {
			bi := base + j
			if bi >= len(block) || (i*64+j*8) >= count {
				break
			}
			w |= uint64(block[bi]) << (8 * uint(j))
		}
		dst[i] = w
	}
}

// ReadBits returns the n <= 64 bits of block starting at bit offset off,
// in the repository's bit order; the field must lie inside the block. It
// is ReadWordBits where that applies, a ninth byte for a wide field that
// straddles a word, and byte loads at the block's tail.
//
//desclint:hotpath called once per lane word by the DESC loader
func ReadBits(block []byte, off, n int) uint64 {
	if WordBits(block, off, n) {
		return ReadWordBits(block, off, n)
	}
	i, sh := off>>3, uint(off&7)
	var w uint64
	if i+8 <= len(block) {
		w = binary.LittleEndian.Uint64(block[i:]) >> sh
		if sh != 0 && n > 64-int(sh) {
			w |= uint64(block[i+8]) << (64 - sh)
		}
	} else {
		for j := 0; i+j < len(block); j++ {
			w |= uint64(block[i+j]) << (8 * uint(j))
		}
		w >>= sh
	}
	if n < 64 {
		w &= 1<<uint(n) - 1
	}
	return w
}

// SpreadLanes moves the consecutive k-bit fields of x into consecutive
// lanes of lane bits each (k <= lane, lane 4 or 8), zero-extending every
// field. 1- and 2-bit fields spread into nibbles by SpreadBitsToNibbles
// and SpreadPairsToNibbles; fields as wide as their lane are already in
// place; other widths move one field at a time.
//
//desclint:hotpath called once per lane word by the DESC loader
func SpreadLanes(x uint64, k, lane int) uint64 {
	switch {
	case k == lane:
		return x
	case k == 2 && lane == 4:
		return SpreadPairsToNibbles(x)
	case k == 1 && lane == 4:
		return SpreadBitsToNibbles(x)
	}
	var w uint64
	field := uint64(1)<<uint(k) - 1
	for i := 0; i < 64/lane; i++ {
		w |= (x >> uint(i*k) & field) << uint(i*lane)
	}
	return w
}

// WordBits reports whether ReadWordBits can read the n-bit field at bit
// offset off of block: its field lies in the 8 bytes from off's byte.
func WordBits(block []byte, off, n int) bool {
	return off>>3+8 <= len(block) && off&7+n <= 64
}

// ReadWordBits is ReadBits for a field WordBits accepts: one unaligned
// word load, small enough to inline.
//
//desclint:hotpath called once per lane word by the DESC loader
func ReadWordBits(block []byte, off, n int) uint64 {
	w := binary.LittleEndian.Uint64(block[off>>3:]) >> uint(off&7)
	if n < 64 {
		w &= 1<<uint(n) - 1
	}
	return w
}

// SpreadPairsToNibbles is SpreadLanes of 2-bit fields into nibble lanes:
// four shift-or-mask steps that halve the field groups at each step.
//
//desclint:hotpath called once per lane word by the DESC loader
func SpreadPairsToNibbles(x uint64) uint64 {
	x = (x | x<<16) & 0x0000FFFF0000FFFF
	x = (x | x<<8) & 0x00FF00FF00FF00FF
	x = (x | x<<4) & 0x0F0F0F0F0F0F0F0F
	return (x | x<<2) & 0x3333333333333333
}

// SpreadBitsToNibbles is SpreadLanes of 1-bit fields into nibble lanes.
//
//desclint:hotpath called once per lane word by the DESC loader
func SpreadBitsToNibbles(x uint64) uint64 {
	x = (x | x<<24) & 0x000000FF000000FF
	x = (x | x<<12) & 0x000F000F000F000F
	x = (x | x<<6) & 0x0303030303030303
	return (x | x<<3) & 0x1111111111111111
}

// StoreBits writes `count` wire-state bits into block at bit offset off,
// ignoring bits beyond the block (padding wires) — the beat-store
// counterpart of LoadBits used by the baseline decode paths.
//
//desclint:hotpath called once per beat by the baseline codecs
func StoreBits(block []byte, src []uint64, off, count int) {
	byteOff := off >> 3
	for i := range src {
		base := byteOff + i*8
		if i*64+56 < count && base+8 <= len(block) {
			binary.LittleEndian.PutUint64(block[base:], src[i])
			continue
		}
		w := src[i]
		for j := 0; j < 8; j++ {
			bi := base + j
			if bi >= len(block) || (i*64+j*8) >= count {
				break
			}
			block[bi] = byte(w >> (8 * uint(j)))
		}
	}
}

// AppendChunks appends block's contiguous k-bit chunks to dst in bit order
// and returns the extended slice: the allocation-free form of Chunks. The
// block size in bits must be a multiple of k.
//
//desclint:hotpath chunk split of the cycle-accurate model and the oracles
func AppendChunks(dst []uint16, block []byte, k int) []uint16 {
	nbits := len(block) * 8
	if k < 1 || k > 16 {
		panic(fmt.Sprintf("bitutil: chunk width %d out of range [1,16]", k))
	}
	if nbits%k != 0 {
		panic(fmt.Sprintf("bitutil: block of %d bits is not a multiple of chunk width %d", nbits, k))
	}
	if n := len(dst) + nbits/k; cap(dst) < n {
		grown := make([]uint16, len(dst), n)
		copy(grown, dst)
		dst = grown
	}
	switch k {
	case 4:
		for _, b := range block {
			dst = append(dst, uint16(b&0xF), uint16(b>>4))
		}
	case 8:
		for _, b := range block {
			dst = append(dst, uint16(b))
		}
	default:
		for i, n := 0, nbits/k; i < n; i++ {
			dst = append(dst, Chunk(block, i*k, k))
		}
	}
	return dst
}
