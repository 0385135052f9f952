package cachesim

import (
	"fmt"
	"math/bits"
	"sync"
)

// line is one way of a set in either cache. Each cache keeps its lines in
// one flat table indexed set*ways+way, so building a cache is a single
// allocation however many sets it has.
type line struct {
	tag        uint64 // block number + 1; 0 = invalid
	sharers    uint32 // L2: bitmask of cores whose L1 holds the line
	owner      int8   // L2: core holding the line Modified in its L1; -1 none
	lru        uint8  // lower = more recently used
	dirty      bool   // L1: Modified; L2: newer than memory
	prefetched bool   // L2: filled by the prefetcher, not yet demanded
}

// lineTable is the flat line store shared by both caches.
type lineTable struct {
	ways  int
	lines []line
}

func newLineTable(sets, ways int) lineTable {
	t := lineTable{ways: ways, lines: make([]line, sets*ways)}
	for set := 0; set < sets; set++ {
		resetRow(t.row(set))
	}
	return t
}

// resetRow puts one set in its initial state: every way invalid, LRU ranks
// in way order.
func resetRow(row []line) {
	for w := range row {
		row[w] = line{owner: -1, lru: uint8(w)}
	}
}

// row returns the ways of one set.
func (t *lineTable) row(set int) []line {
	return t.lines[set*t.ways : (set+1)*t.ways]
}

// find returns the ways of set and the line holding tag, or nil.
//
//desclint:hotpath
func (t *lineTable) find(set int, tag uint64) ([]line, *line) {
	row := t.row(set)
	for w := range row {
		if row[w].tag == tag {
			return row, &row[w]
		}
	}
	return row, nil
}

// promote makes l, one of row's ways, the most recently used in its set.
//
//desclint:hotpath
func promote(row []line, l *line) {
	old := l.lru
	for i := range row {
		if row[i].lru < old {
			row[i].lru++
		}
	}
	l.lru = 0
}

// victim chooses the way to replace: the first invalid way, else the
// least recently used (highest LRU value; the last on a tie).
//
//desclint:hotpath
func victim(row []line) int {
	way, best := 0, uint8(0)
	for w := range row {
		if row[w].tag == 0 {
			return w
		}
		if row[w].lru >= best {
			best = row[w].lru
			way = w
		}
	}
	return way
}

// l1Cache is one core's set-associative, write-back, write-allocate L1
// data cache with LRU replacement. Coherence is MESI collapsed to the two
// states that matter for this study: a line is Modified (dirty) or Shared
// (Exclusive is folded into Modified on first write and into Shared
// otherwise).
type l1Cache struct {
	setMask uint64 // sets - 1; the L1 geometry gives a power-of-two set count
	blkBits uint
	lineTable
}

func newL1(blockBytes int) *l1Cache {
	sets := l1Bytes / blockBytes / l1Ways
	blkBits := uint(0)
	for 1<<blkBits < blockBytes {
		blkBits++
	}
	return &l1Cache{setMask: uint64(sets - 1), blkBits: blkBits, lineTable: newLineTable(sets, l1Ways)}
}

// probe returns addr's set and the line holding it, or nil.
//
//desclint:hotpath
func (c *l1Cache) probe(addr uint64) ([]line, *line) {
	blk := addr >> c.blkBits
	return c.find(int(blk&c.setMask), blk+1) // +1 so tag 0 means invalid
}

// fill installs addr in row, the set probe returned for it, and returns
// the evicted block address and whether it was dirty. The line starts
// Shared (or Modified when allocated by a write).
//
//desclint:hotpath
func (c *l1Cache) fill(row []line, addr uint64, write bool) (victimAddr uint64, dirty bool) {
	l := &row[victim(row)]
	if l.tag != 0 && l.dirty {
		victimAddr = (l.tag - 1) << c.blkBits
		dirty = true
	}
	l.tag = addr>>c.blkBits + 1
	l.dirty = write
	promote(row, l)
	return victimAddr, dirty
}

// invalidate drops addr if present, reporting whether it was there.
// (A dirty line invalidated by coherence has already been written back by
// the caller.)
//
//desclint:hotpath
func (c *l1Cache) invalidate(addr uint64) bool {
	_, l := c.probe(addr)
	if l == nil {
		return false
	}
	l.tag = 0
	l.dirty = false
	return true
}

// l2Cache is the shared L2 tag/directory store: banked, set associative,
// LRU, with a sharer bitmask and dirty-owner tracking per line.
type l2Cache struct {
	setsPerBank int
	banks       int
	blkBits     uint
	lineTable
	// touched has one bit per set that allocate has written. Every other
	// method changes only lines whose tag matched, and a set allocate never
	// wrote holds no valid tag, so the unmarked sets are still in
	// newLineTable's state and reset can skip them.
	touched []uint64
}

func newL2(capacity, blockBytes, banks int) (*l2Cache, error) {
	sets := capacity / blockBytes / l2Ways
	if sets == 0 {
		return nil, fmt.Errorf("cachesim: L2 of %d bytes holds no set of %d ways x %d-byte blocks", capacity, l2Ways, blockBytes)
	}
	if sets%banks != 0 {
		return nil, fmt.Errorf("cachesim: %d L2 sets not divisible by %d banks", sets, banks)
	}
	blkBits := uint(0)
	for 1<<blkBits < blockBytes {
		blkBits++
	}
	c := l2Tables.take(sets, l2Ways)
	if c == nil {
		c = &l2Cache{lineTable: newLineTable(sets, l2Ways), touched: make([]uint64, (sets+63)/64)}
	}
	c.setsPerBank, c.banks, c.blkBits = sets/banks, banks, blkBits
	return c, nil
}

// reset returns every set allocate marked to newLineTable's state and
// clears the marks.
func (c *l2Cache) reset() {
	for i, word := range c.touched {
		for ; word != 0; word &= word - 1 {
			resetRow(c.row(i*64 + bits.TrailingZeros64(word)))
		}
		c.touched[i] = 0
	}
}

// l2PoolCap bounds the released L2 caches kept for reuse: enough for a few
// concurrent runner workers, or for a sweep that alternates between a few
// L2 geometries.
const l2PoolCap = 4

// l2Pool holds released L2 caches, already reset, for New to reuse. It is
// shared by every hierarchy in the process.
type l2Pool struct {
	mu   sync.Mutex
	free []*l2Cache // oldest first
}

// l2Tables recycles the L2 line tables across runs; see Hierarchy.Release.
var l2Tables l2Pool

// take removes and returns a pooled cache whose table has the given
// geometry, or nil.
func (p *l2Pool) take(sets, ways int) *l2Cache {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i, c := range p.free {
		if c.ways == ways && len(c.lines) == sets*ways {
			copy(p.free[i:], p.free[i+1:])
			p.free[len(p.free)-1] = nil
			p.free = p.free[:len(p.free)-1]
			return c
		}
	}
	return nil
}

// put adds a reset cache to the pool, dropping the oldest when full.
func (p *l2Pool) put(c *l2Cache) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.free) == l2PoolCap {
		copy(p.free, p.free[1:])
		p.free = p.free[:len(p.free)-1]
	}
	p.free = append(p.free, c)
}

// l2Loc is a block's place in the L2: the bank that serves it, the set
// that holds it and its tag.
type l2Loc struct {
	bank, set int
	tag       uint64
}

// locate maps addr to its bank, set and tag. Consecutive blocks go to
// consecutive banks, and a bank's blocks to consecutive sets within it.
//
//desclint:hotpath
func (c *l2Cache) locate(addr uint64) l2Loc {
	blk := addr >> c.blkBits
	q, bank := blk/uint64(c.banks), blk%uint64(c.banks)
	row := q % uint64(c.setsPerBank)
	return l2Loc{bank: int(bank), set: int(bank)*c.setsPerBank + int(row), tag: blk + 1}
}

// allocate installs loc's block and returns its line and any dirty
// victim.
//
//desclint:hotpath
func (c *l2Cache) allocate(loc l2Loc) (l *line, victimAddr uint64, victimDirty bool) {
	c.touched[loc.set/64] |= 1 << (loc.set % 64)
	row := c.row(loc.set)
	l = &row[victim(row)]
	if l.tag != 0 && l.dirty {
		victimAddr = (l.tag - 1) << c.blkBits
		victimDirty = true
	}
	*l = line{tag: loc.tag, owner: -1, lru: l.lru}
	promote(row, l)
	return l, victimAddr, victimDirty
}

// recordL1 tracks which core holds l's block after a fill; l may be nil.
//
//desclint:hotpath
func recordL1(l *line, core int, write bool) {
	if l == nil {
		return
	}
	l.sharers |= 1 << uint(core)
	if write {
		l.owner = int8(core)
		l.dirty = true
	}
}

// clearSharers drops every sharer of l except `except`; l may be nil.
//
//desclint:hotpath
func clearSharers(l *line, except int) {
	if l == nil {
		return
	}
	l.sharers &= 1 << uint(except)
	if int(l.owner) != except {
		l.owner = -1
	}
}
