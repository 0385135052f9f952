// Package bitutil provides the bit-level primitives shared by all data
// transfer codecs: bit access, the extraction and reassembly of
// fixed-width chunks from cache blocks, and the word-parallel kernels of
// swar.go.
//
// Throughout the repository a cache block is a []byte in little-endian bit
// order: bit i of the block is bit (i%8) of byte i/8. A "chunk" is a k-bit
// field (1 <= k <= 16) read from consecutive bit positions; DESC assigns one
// chunk per wire per round.
package bitutil

import "fmt"

// Bit reports bit i of block (little-endian bit order).
func Bit(block []byte, i int) bool {
	return block[i>>3]&(1<<(uint(i)&7)) != 0
}

// SetBit sets bit i of block to v.
func SetBit(block []byte, i int, v bool) {
	if v {
		block[i>>3] |= 1 << (uint(i) & 7)
	} else {
		block[i>>3] &^= 1 << (uint(i) & 7)
	}
}

// Chunk extracts the k-bit chunk starting at bit offset off from block.
// The chunk may straddle byte boundaries. k must be in [1,16] and the chunk
// must lie entirely inside the block.
func Chunk(block []byte, off, k int) uint16 {
	if k < 1 || k > 16 {
		panic(fmt.Sprintf("bitutil: chunk width %d out of range [1,16]", k))
	}
	if off < 0 || off+k > len(block)*8 {
		panic(fmt.Sprintf("bitutil: chunk [%d,%d) outside block of %d bits", off, off+k, len(block)*8))
	}
	// Read up to 3 bytes covering the field.
	var v uint32
	byteOff := off >> 3
	shift := uint(off & 7)
	for i := 0; i < 3 && byteOff+i < len(block); i++ {
		v |= uint32(block[byteOff+i]) << (8 * uint(i))
	}
	return uint16((v >> shift) & ((1 << uint(k)) - 1))
}

// PutChunk writes the k-bit value v at bit offset off in block.
func PutChunk(block []byte, off, k int, v uint16) {
	if k < 1 || k > 16 {
		panic(fmt.Sprintf("bitutil: chunk width %d out of range [1,16]", k))
	}
	if off < 0 || off+k > len(block)*8 {
		panic(fmt.Sprintf("bitutil: chunk [%d,%d) outside block of %d bits", off, off+k, len(block)*8))
	}
	if uint32(v) >= 1<<uint(k) {
		panic(fmt.Sprintf("bitutil: value %d does not fit in %d bits", v, k))
	}
	for i := 0; i < k; i++ {
		SetBit(block, off+i, v&(1<<uint(i)) != 0)
	}
}

// Chunks splits block into contiguous k-bit chunks, in bit order. The block
// size in bits must be a multiple of k.
func Chunks(block []byte, k int) []uint16 {
	return AppendChunks(nil, block, k)
}

// FromChunks reassembles a block from contiguous k-bit chunks.
func FromChunks(chunks []uint16, k int) []byte {
	nbits := len(chunks) * k
	if nbits%8 != 0 {
		panic(fmt.Sprintf("bitutil: %d chunks of %d bits is not a whole number of bytes", len(chunks), k))
	}
	block := make([]byte, nbits/8)
	for i, c := range chunks {
		PutChunk(block, i*k, k, c)
	}
	return block
}

// Equal reports whether a and b hold identical bytes.
func Equal(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Clone returns a copy of b.
func Clone(b []byte) []byte {
	c := make([]byte, len(b))
	copy(c, b)
	return c
}
