package bitutil

import (
	"encoding/binary"
	"fmt"
)

// This file holds the word-parallel (SWAR) kernels behind the hot encode
// and decode paths: cache blocks are packed into uint64 words holding 16
// consecutive 4-bit chunks (or 8 consecutive 8-bit chunks) each, and
// per-round chunk comparisons become a handful of bitwise operations plus
// popcounts instead of per-wire loops. Every kernel here is pinned against
// the scalar implementations by the differential tests in this package and
// in internal/core.

// Nibble and byte masks: one constant bit per lane of a word.
const (
	// NibbleMSB has bit 3 of every nibble set.
	NibbleMSB = 0x8888888888888888
	// nibbleLow3 has bits 0..2 of every nibble set.
	nibbleLow3 = 0x7777777777777777
	// ByteLSB has bit 0 of every byte set.
	ByteLSB = 0x0101010101010101
	// ByteMSB has bit 7 of every byte set.
	ByteMSB = 0x8080808080808080
	// byteLow7 has bits 0..6 of every byte set.
	byteLow7 = 0x7F7F7F7F7F7F7F7F
)

// LoadWords packs block into little-endian uint64 words (bit i of the block
// is bit i%64 of word i/64, matching the repository's bit order), reusing
// dst's backing array when it is large enough. A partial final word is
// zero-padded.
//
//desclint:hotpath called once per block on word geometries
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

// NibbleZeroMask returns a word with bit 3 of each nibble set iff that
// nibble of x is zero. The per-lane carry trick is exact: bit 3 of
// (x&7)+7 is set iff the low three bits are non-zero, OR-ing in x adds
// bit 3 itself, and lanes cannot carry into each other because 7+7 < 16.
//
//desclint:hotpath
func NibbleZeroMask(x uint64) uint64 {
	return ^(((x & nibbleLow3) + nibbleLow3) | x) & NibbleMSB
}

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

// MaxNibble returns the maximum 4-bit nibble value in x.
//
//desclint:hotpath
func MaxNibble(x uint64) uint16 {
	const byteNibble = 0x0F0F0F0F0F0F0F0F
	m := byteMax(x&byteNibble, (x>>4)&byteNibble)
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
// of x is zero. Same exact per-lane carry form as NibbleZeroMask: bit 7
// of (x&0x7F)+0x7F is set iff the low seven bits are non-zero, OR-ing in
// x adds bit 7 itself, and 0x7F+0x7F < 0x100 so lanes cannot carry into
// each other.
//
//desclint:hotpath
func ByteZeroMask(x uint64) uint64 {
	return ^(((x & byteLow7) + byteLow7) | x) & ByteMSB
}

// ByteNeqMask returns a word with bit 7 of each byte set iff the
// corresponding bytes of x and y differ. Iterate its set bits with
// bits.TrailingZeros64 &^ 7 to visit only the differing lanes.
//
//desclint:hotpath
func ByteNeqMask(x, y uint64) uint64 {
	return ^ByteZeroMask(x^y) & ByteMSB
}

// BytePopcounts returns a word whose byte lanes hold the population
// counts of the corresponding bytes of x (each in 0..8). This is the
// classic SWAR popcount stopped at the per-byte fold — the per-segment
// Hamming distances of a whole 8-segment bus word in four operations.
//
//desclint:hotpath
func BytePopcounts(x uint64) uint64 {
	x -= (x >> 1) & 0x5555555555555555
	x = (x & 0x3333333333333333) + ((x >> 2) & 0x3333333333333333)
	return (x + (x >> 4)) & 0x0F0F0F0F0F0F0F0F
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

// MaxByte returns the maximum 8-bit byte value in x. Bytes are spread to
// 16-bit lanes first so the borrow-trick comparison stays exact for the
// full 0..255 range (the nibble fold's byteMax requires values <= 0x7F).
//
//desclint:hotpath
func MaxByte(x uint64) uint16 {
	const lane16Low = 0x00FF00FF00FF00FF
	m := laneMax16(x&lane16Low, (x>>8)&lane16Low)
	m = laneMax16(m, m>>32)
	m = laneMax16(m, m>>16)
	return uint16(m & 0xFF)
}

// StoreWords writes the little-endian uint64 words back into block — the
// exact inverse of LoadWords. len(block) selects how many bytes are
// written; words must cover the block, and bits beyond the block in a
// partial final word are ignored.
//
//desclint:hotpath called once per decoded block on word geometries
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
//desclint:hotpath scalar-geometry chunk split
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
