package workload

import "sync"

// The block cache holds generated blocks for every generator in the
// process. A block is a pure function of (profile, seed, address), so a
// sweep that simulates many bus schemes over one benchmark and seed
// generates each block once instead of once per run.
//
// Entries are keyed exactly: by the id the spill memo issued for the
// generator's (profile, seed) and by the block address. Blocks sit densely
// in one FIFO ring, so the cache's memory grows with the blocks actually
// generated, up to blockCacheCap; a small open-addressed index finds them.

// blockCacheCap bounds the ring: 32 768 blocks, 2 MiB of block data
// (2.5 MiB with the keys stored beside it).
const blockCacheCap = 1 << 15

// blockChunk is the ring's allocation unit, in blocks; the ring grows a
// chunk at a time until it reaches blockCacheCap.
const blockChunk = 1 << 10

// blockIndexBits sizes the index: 2^16 positions (256 KiB), so it is at
// most half full and probe runs stay short.
const blockIndexBits = 16

// An index entry is the key's tag in the high 16 bits and its ring slot
// + 1 in the low 16 (0 = empty position): the top of the key's hash picks
// its home position and the bottom 16 bits are its tag, so a probe reads
// a ring slot only when the tags match.
const (
	refBits = 16
	refMask = 1<<refBits - 1
)

// A slot reference must fit beside the tag.
const _ = uint(refMask - blockCacheCap)

// lookup's probe loop ends only at an empty position: the build fails if
// the ring could fill more than half the index.
const _ = uint(1<<blockIndexBits - 2*blockCacheCap)

// blockKey names one cached block.
type blockKey struct {
	id   uint64 // spillEntry.id of the generator's (profile, seed)
	addr uint64 // block-aligned address
}

// hash returns k's index hash.
func (k blockKey) hash() uint64 { return mix(k.addr ^ k.id*0x9E3779B97F4A7C15) }

// home returns k's preferred index position.
func (k blockKey) home() int { return int(k.hash() >> (64 - blockIndexBits)) }

// tag returns k's tag in index entry position.
func (k blockKey) tag() uint32 { return uint32(k.hash()) << refBits }

// cachedBlock is one ring slot: the block and the key it is indexed by,
// which the slot's next overwrite removes from the index.
type cachedBlock struct {
	key  blockKey
	data [64]byte
}

// blockCache is a bounded FIFO of generated blocks. Readers share the lock;
// a miss generates its block outside the lock and inserts it under it.
type blockCache struct {
	mu sync.RWMutex
	// index holds each cached key's entry (tag and ring slot + 1; 0 =
	// empty) at its home position or, on a collision, the next free one
	// after it (linear probing).
	index  [1 << blockIndexBits]uint32
	chunks []*[blockChunk]cachedBlock
	n      int // filled slots
	next   int // slot the next insertion overwrites
}

// blocks is the process-wide block cache behind FillBlockData.
var blocks = new(blockCache)

// slot returns ring slot i; the caller holds c.mu.
func (c *blockCache) slot(i uint32) *cachedBlock {
	return &c.chunks[i/blockChunk][i%blockChunk]
}

// lookup returns the index position holding k and k's ring slot + 1, or
// the empty position where k belongs and 0. The caller holds c.mu.
func (c *blockCache) lookup(k blockKey) (pos int, ref uint32) {
	const mask = 1<<blockIndexBits - 1
	h := k.hash()
	tag := uint32(h) << refBits
	for pos = int(h >> (64 - blockIndexBits)); ; pos = (pos + 1) & mask {
		e := c.index[pos]
		if e == 0 {
			return pos, 0
		}
		if e&^refMask == tag && c.slot(e&refMask-1).key == k {
			return pos, e & refMask
		}
	}
}

// get copies the block cached under k into dst and reports whether there
// was one.
func (c *blockCache) get(k blockKey, dst []byte) bool {
	c.mu.RLock()
	_, ref := c.lookup(k)
	if ref != 0 {
		copy(dst, c.slot(ref - 1).data[:])
	}
	c.mu.RUnlock()
	return ref != 0
}

// put records data under k, overwriting the oldest block once the ring is
// full. A key that a concurrent miss already recorded is left alone.
func (c *blockCache) put(k blockKey, data *[64]byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	pos, ref := c.lookup(k)
	if ref != 0 {
		return
	}
	i := uint32(c.next)
	if c.next == len(c.chunks)*blockChunk {
		c.chunks = append(c.chunks, new([blockChunk]cachedBlock))
	}
	s := c.slot(i)
	if c.n == blockCacheCap {
		c.remove(s.key)
		pos, _ = c.lookup(k) // the removal may have shifted k's probe run
	} else {
		c.n++
	}
	s.key, s.data = k, *data
	c.index[pos] = k.tag() | (i + 1)
	c.next = (c.next + 1) % blockCacheCap
}

// remove deletes cached key k from the index, shifting the rest of its
// probe run back so every remaining key stays reachable from its home.
// The caller holds c.mu.
func (c *blockCache) remove(k blockKey) {
	const mask = 1<<blockIndexBits - 1
	hole, _ := c.lookup(k)
	for j := (hole + 1) & mask; c.index[j] != 0; j = (j + 1) & mask {
		// The entry at j may fill the hole unless its home lies
		// cyclically in (hole, j].
		h := c.slot(c.index[j]&refMask - 1).key.home()
		if (j-h)&mask >= (j-hole)&mask {
			c.index[hole] = c.index[j]
			hole = j
		}
	}
	c.index[hole] = 0
}
