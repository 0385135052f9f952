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

// find returns the ways of set and the way holding tag, or -1.
//
//desclint:hotpath
func (t *lineTable) find(set int, tag uint64) ([]line, int) {
	row := t.row(set)
	for w := range row {
		if row[w].tag == tag {
			return row, w
		}
	}
	return row, -1
}

// promote makes way w the most recently used in its set.
//
//desclint:hotpath
func promote(row []line, w int) {
	old := row[w].lru
	for i := range row {
		if row[i].lru < old {
			row[i].lru++
		}
	}
	row[w].lru = 0
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
	sets    int
	blkBits uint
	lineTable
}

func newL1(capacity, ways, blockBytes int) (*l1Cache, error) {
	if capacity <= 0 || ways <= 0 || blockBytes <= 0 {
		return nil, fmt.Errorf("cachesim: invalid L1 geometry")
	}
	sets := capacity / blockBytes / ways
	if sets == 0 || sets&(sets-1) != 0 {
		return nil, fmt.Errorf("cachesim: L1 sets %d not a power of two", sets)
	}
	blkBits := uint(0)
	for 1<<blkBits < blockBytes {
		blkBits++
	}
	return &l1Cache{sets: sets, blkBits: blkBits, lineTable: newLineTable(sets, ways)}, nil
}

func (c *l1Cache) index(addr uint64) (set int, tag uint64) {
	blk := addr >> c.blkBits
	return int(blk % uint64(c.sets)), blk + 1 // +1 so tag 0 means invalid
}

// lookup reports whether addr is present and whether it is Modified.
//
//desclint:hotpath
func (c *l1Cache) lookup(addr uint64) (modified, ok bool) {
	row, w := c.find(c.index(addr))
	if w < 0 {
		return false, false
	}
	return row[w].dirty, true
}

// touch updates LRU order and, on writes, promotes the line to Modified.
//
//desclint:hotpath
func (c *l1Cache) touch(addr uint64, write bool) {
	row, w := c.find(c.index(addr))
	if w < 0 {
		return
	}
	promote(row, w)
	if write {
		row[w].dirty = true
	}
}

// allocate installs addr, returning the evicted block address and whether
// it was dirty. The line starts Shared (or Modified when allocated by a
// write).
//
//desclint:hotpath
func (c *l1Cache) allocate(addr uint64, write bool) (victimAddr uint64, dirty bool) {
	set, tag := c.index(addr)
	row := c.row(set)
	way := victim(row)
	if row[way].tag != 0 && row[way].dirty {
		victimAddr = (row[way].tag - 1) << c.blkBits
		dirty = true
	}
	row[way].tag = tag
	row[way].dirty = write
	promote(row, way)
	return victimAddr, dirty
}

// invalidate drops addr if present, reporting whether it was there.
// (A dirty line invalidated by coherence has already been written back by
// the caller.)
func (c *l1Cache) invalidate(addr uint64) bool {
	row, w := c.find(c.index(addr))
	if w < 0 {
		return false
	}
	row[w].tag = 0
	row[w].dirty = false
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

func newL2(capacity, ways, blockBytes, banks int) (*l2Cache, error) {
	if capacity <= 0 || ways <= 0 || blockBytes <= 0 || banks <= 0 {
		return nil, fmt.Errorf("cachesim: invalid L2 geometry")
	}
	sets := capacity / blockBytes / ways
	if sets%banks != 0 {
		return nil, fmt.Errorf("cachesim: %d L2 sets not divisible by %d banks", sets, banks)
	}
	blkBits := uint(0)
	for 1<<blkBits < blockBytes {
		blkBits++
	}
	c := l2Tables.take(sets, ways)
	if c == nil {
		c = &l2Cache{lineTable: newLineTable(sets, ways), touched: make([]uint64, (sets+63)/64)}
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

func (c *l2Cache) index(addr uint64) (set int, tag uint64) {
	blk := addr >> c.blkBits
	bank := blk % uint64(c.banks)
	row := (blk / uint64(c.banks)) % uint64(c.setsPerBank)
	return int(bank)*c.setsPerBank + int(row), blk + 1
}

// line returns addr's line, or nil when it is not cached.
//
//desclint:hotpath
func (c *l2Cache) line(addr uint64) *line {
	row, w := c.find(c.index(addr))
	if w < 0 {
		return nil
	}
	return &row[w]
}

// lookup reports presence and refreshes LRU.
//
//desclint:hotpath
func (c *l2Cache) lookup(addr uint64) bool {
	row, w := c.find(c.index(addr))
	if w < 0 {
		return false
	}
	promote(row, w)
	return true
}

// allocate installs addr and returns any dirty victim.
//
//desclint:hotpath
func (c *l2Cache) allocate(addr uint64) (victimAddr uint64, victimDirty bool) {
	set, tag := c.index(addr)
	c.touched[set/64] |= 1 << (set % 64)
	row := c.row(set)
	way := victim(row)
	if row[way].tag != 0 && row[way].dirty {
		victimAddr = (row[way].tag - 1) << c.blkBits
		victimDirty = true
	}
	row[way] = line{tag: tag, owner: -1, lru: row[way].lru}
	promote(row, way)
	return victimAddr, victimDirty
}

// markPrefetched flags addr as prefetcher-filled.
func (c *l2Cache) markPrefetched(addr uint64) {
	if l := c.line(addr); l != nil {
		l.prefetched = true
	}
}

// clearPrefetched reports and clears the prefetched flag (a useful
// prefetch: the line was demanded before eviction).
func (c *l2Cache) clearPrefetched(addr uint64) bool {
	l := c.line(addr)
	if l == nil || !l.prefetched {
		return false
	}
	l.prefetched = false
	return true
}

// recordL1 tracks which core holds the line after a fill.
func (c *l2Cache) recordL1(addr uint64, core int, write bool) {
	l := c.line(addr)
	if l == nil {
		return
	}
	l.sharers |= 1 << uint(core)
	if write {
		l.owner = int8(core)
		l.dirty = true
	}
}

// dirtyOwner returns the core holding addr Modified, or -1.
func (c *l2Cache) dirtyOwner(addr uint64) int {
	l := c.line(addr)
	if l == nil {
		return -1
	}
	return int(l.owner)
}

// markDirty records an L1 writeback into the line.
func (c *l2Cache) markDirty(addr uint64) {
	if l := c.line(addr); l != nil {
		l.dirty = true
		l.owner = -1
	}
}

// clearSharers drops every sharer except `except`.
func (c *l2Cache) clearSharers(addr uint64, except int) {
	l := c.line(addr)
	if l == nil {
		return
	}
	l.sharers &= 1 << uint(except)
	if int(l.owner) != except {
		l.owner = -1
	}
}
