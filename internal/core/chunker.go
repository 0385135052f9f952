package core

import (
	"fmt"

	"desc/internal/bitutil"
)

// Chunker partitions cache blocks into fixed-width chunks and assigns them
// to data wires (Figure 4). With C chunks and W wires the block is sent in
// ceil(C/W) rounds; chunk i is carried by wire i mod W in round i / W, so
// consecutive chunks spread across wires (Figure 4b shows the paper's
// 128-chunk / 64-wire case: wire 1 carries chunks 1 and 65).
type Chunker struct {
	blockBits int
	chunkBits int
	wires     int
	numChunks int
	rounds    int
}

// NewChunker validates and builds a chunker. blockBits must be divisible by
// chunkBits, and chunkBits must be in [1,8] (the paper explores 1..8-bit
// chunks in Figure 26).
func NewChunker(blockBits, chunkBits, wires int) (*Chunker, error) {
	if chunkBits < 1 || chunkBits > 8 {
		return nil, fmt.Errorf("core: chunk width %d outside [1,8]", chunkBits)
	}
	if blockBits <= 0 || blockBits%chunkBits != 0 {
		return nil, fmt.Errorf("core: block of %d bits not divisible by %d-bit chunks", blockBits, chunkBits)
	}
	if blockBits%8 != 0 {
		return nil, fmt.Errorf("core: block of %d bits is not whole bytes", blockBits)
	}
	if wires <= 0 {
		return nil, fmt.Errorf("core: %d wires", wires)
	}
	c := blockBits / chunkBits
	return &Chunker{
		blockBits: blockBits,
		chunkBits: chunkBits,
		wires:     wires,
		numChunks: c,
		rounds:    (c + wires - 1) / wires,
	}, nil
}

// BlockBits returns the block size in bits.
func (c *Chunker) BlockBits() int { return c.blockBits }

// ChunkBits returns the chunk width in bits.
func (c *Chunker) ChunkBits() int { return c.chunkBits }

// Wires returns the number of data wires.
func (c *Chunker) Wires() int { return c.wires }

// NumChunks returns the number of chunks per block.
func (c *Chunker) NumChunks() int { return c.numChunks }

// Rounds returns the number of transfer rounds per block.
func (c *Chunker) Rounds() int { return c.rounds }

// Split extracts the block's chunks in chunk-index order.
func (c *Chunker) Split(block []byte) []uint16 {
	if len(block)*8 != c.blockBits {
		panic(fmt.Sprintf("core: block of %d bits, chunker configured for %d", len(block)*8, c.blockBits))
	}
	return bitutil.Chunks(block, c.chunkBits)
}

// Join reassembles a block from chunks in chunk-index order.
func (c *Chunker) Join(chunks []uint16) []byte {
	if len(chunks) != c.numChunks {
		panic(fmt.Sprintf("core: %d chunks, chunker configured for %d", len(chunks), c.numChunks))
	}
	return bitutil.FromChunks(chunks, c.chunkBits)
}

// Wire returns the data wire that carries chunk i.
func (c *Chunker) Wire(i int) int { return i % c.wires }

// Round returns the round in which chunk i travels.
func (c *Chunker) Round(i int) int { return i / c.wires }

// ChunkAt returns the chunk index carried by the given wire in the given
// round, and whether such a chunk exists (the final round may be partial).
func (c *Chunker) ChunkAt(round, wire int) (int, bool) {
	i := round*c.wires + wire
	return i, i < c.numChunks
}
