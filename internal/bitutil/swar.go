package bitutil

import (
	"encoding/binary"
	"fmt"
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

// Nibble and byte masks: one constant bit per lane of a word.
const (
	// NibbleMSB has bit 3 of every nibble set.
	NibbleMSB = 0x8888888888888888
	// ByteLSB has bit 0 of every byte set.
	ByteLSB = 0x0101010101010101
	// ByteMSB has bit 7 of every byte set.
	ByteMSB = 0x8080808080808080
)

// LoadWords packs block into little-endian uint64 words (bit i of the block
// is bit i%64 of word i/64, matching the repository's bit order), reusing
// dst's backing array when it is large enough. A partial final word is
// zero-padded.
//
//desclint:hotpath called once per block by the DESC codec
func LoadWords(dst []uint64, block []byte) []uint64 {
	n := (len(block) + 7) / 8
	if cap(dst) < n {
		dst = make([]uint64, n)
	}
	dst = dst[:n]
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

// NibbleZeroMask returns a word with bit 3 of each nibble set iff that
// nibble of x is zero (LaneZeroMask at 4-bit lanes).
//
//desclint:hotpath
func NibbleZeroMask(x uint64) uint64 { return LaneZeroMask(x, NibbleMSB) }

// NibbleNeqMask returns a word with bit 3 of each nibble set iff the
// corresponding nibbles of x and y differ. Iterate its set bits with
// bits.TrailingZeros64 to visit only the differing lanes.
//
//desclint:hotpath
func NibbleNeqMask(x, y uint64) uint64 {
	return ^NibbleZeroMask(x^y) & NibbleMSB
}

// byteMax returns the lane-wise maximum of two words of bytes. Both inputs
// must have bit 7 of every byte clear (values <= 0x7F), which holds for
// spread nibbles.
func byteMax(a, b uint64) uint64 {
	// Bit 7 of (a|0x80)-b is set iff a >= b in that lane; no borrow can
	// cross lanes because every lane of a|0x80 exceeds every lane of b.
	ge := (((a | ByteMSB) - b) >> 7) & ByteLSB
	mask := ge * 0xFF // broadcast each 0/1 to a full-byte 0x00/0xFF mask
	return (a & mask) | (b &^ mask)
}

// MaxNibble returns the maximum 4-bit nibble value over the words xs. The
// words fold lane-wise into one word of byte maxima first, so a round of
// words pays for a single horizontal fold.
//
//desclint:hotpath
func MaxNibble(xs ...uint64) uint16 {
	const byteNibble = 0x0F0F0F0F0F0F0F0F
	var m uint64
	for _, x := range xs {
		m = byteMax(m, x&byteNibble)
		m = byteMax(m, (x>>4)&byteNibble)
	}
	m = byteMax(m, m>>32)
	m = byteMax(m, m>>16)
	m = byteMax(m, m>>8)
	return uint16(m & 0xF)
}

// NibbleLaneMask returns a word whose low n nibbles are all-ones and
// whose remaining lanes are zero. AND it with chunk data to keep only
// valid lanes, or with a nibble-MSB mask (NibbleZeroMask, NibbleNeqMask
// results) to restrict a compare to the first n lanes of a partial word.
//
//desclint:hotpath
func NibbleLaneMask(n int) uint64 {
	if n >= 16 {
		return ^uint64(0)
	}
	return (uint64(1) << (4 * uint(n))) - 1
}

// ByteLaneMask returns a word whose low n bytes are all-ones, the 8-bit
// lane counterpart of NibbleLaneMask.
//
//desclint:hotpath
func ByteLaneMask(n int) uint64 {
	if n >= 8 {
		return ^uint64(0)
	}
	return (uint64(1) << (8 * uint(n))) - 1
}

// ByteZeroMask returns a word with bit 7 of each byte set iff that byte
// of x is zero (LaneZeroMask at 8-bit lanes).
//
//desclint:hotpath
func ByteZeroMask(x uint64) uint64 { return LaneZeroMask(x, ByteMSB) }

// ByteNeqMask returns a word with bit 7 of each byte set iff the
// corresponding bytes of x and y differ. Iterate its set bits with
// bits.TrailingZeros64 &^ 7 to visit only the differing lanes.
//
//desclint:hotpath
func ByteNeqMask(x, y uint64) uint64 {
	return ^ByteZeroMask(x^y) & ByteMSB
}

// laneMax16 returns the lane-wise maximum of two words of four 16-bit
// lanes. Both inputs must have bit 15 of every lane clear (values <=
// 0x7FFF), which holds for zero-extended bytes.
func laneMax16(a, b uint64) uint64 {
	const (
		laneLSB = 0x0001000100010001
		laneMSB = 0x8000800080008000
	)
	// Bit 15 of (a|0x8000)-b is set iff a >= b in that lane; no borrow
	// crosses lanes because every lane of a|0x8000 exceeds every lane
	// of b.
	ge := (((a | laneMSB) - b) >> 15) & laneLSB
	mask := ge * 0xFFFF // broadcast each 0/1 to a full-lane mask
	return (a & mask) | (b &^ mask)
}

// MaxByte returns the maximum 8-bit byte value over the words xs, folded
// like MaxNibble. Bytes are spread to 16-bit lanes first so the
// borrow-trick comparison stays exact for the full 0..255 range (the
// nibble fold's byteMax requires values <= 0x7F).
//
//desclint:hotpath
func MaxByte(xs ...uint64) uint16 {
	const lane16Low = 0x00FF00FF00FF00FF
	var m uint64
	for _, x := range xs {
		m = laneMax16(m, x&lane16Low)
		m = laneMax16(m, (x>>8)&lane16Low)
	}
	m = laneMax16(m, m>>32)
	m = laneMax16(m, m>>16)
	return uint16(m & 0xFF)
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
// is one unaligned word load away from the block's end and byte loads at
// its tail.
//
//desclint:hotpath called once per lane word by the DESC loader
func ReadBits(block []byte, off, n int) uint64 {
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
// field. 1- and 2-bit fields spread into nibbles by four shift-or-mask
// steps that halve the field groups at each step; fields as wide as
// their lane are already in place; other widths move one field at a
// time.
//
//desclint:hotpath called once per lane word by the DESC loader
func SpreadLanes(x uint64, k, lane int) uint64 {
	switch {
	case k == lane:
		return x
	case k == 2 && lane == 4:
		x = (x | x<<16) & 0x0000FFFF0000FFFF
		x = (x | x<<8) & 0x00FF00FF00FF00FF
		x = (x | x<<4) & 0x0F0F0F0F0F0F0F0F
		return (x | x<<2) & 0x3333333333333333
	case k == 1 && lane == 4:
		x = (x | x<<24) & 0x000000FF000000FF
		x = (x | x<<12) & 0x000F000F000F000F
		x = (x | x<<6) & 0x0303030303030303
		return (x | x<<3) & 0x1111111111111111
	}
	var w uint64
	field := uint64(1)<<uint(k) - 1
	for i := 0; i < 64/lane; i++ {
		w |= (x >> uint(i*k) & field) << uint(i*lane)
	}
	return w
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
