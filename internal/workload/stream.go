package workload

import (
	"math/rand"
	"sync"
)

// Access is one memory reference of a context's stream.
type Access struct {
	// Addr is the byte address (block aligned).
	Addr uint64
	// Write reports a store.
	Write bool
	// Gap is the number of non-memory instructions executed before this
	// reference.
	Gap int
}

// reuseFrac is the probability that a reference re-touches a recently used
// address (temporal locality); recent addresses mostly hit in the L1 and
// keep miss rates in the range of real memory-intensive applications.
const reuseFrac = 0.72

// reuseWindow is the number of recent addresses eligible for reuse.
const reuseWindow = 48

// Stream is the access sequence of one hardware context. The sequence is a
// pure function of (profile, seed, ctx, nctx), so a sweep that simulates
// many bus schemes over one benchmark and seed replays each context's
// accesses from one process-wide record (see streamTable) instead of
// generating them once per run. A Stream is a cursor over that record: it
// copies a chunk at a time out of it and, once it outruns a record that
// can no longer grow, continues on a private generator, bit for bit.
type Stream struct {
	rec  *streamRecord
	buf  [streamChunk]uint64 // accesses copied out of the record
	i, n int                 // buf[i:n] is not yet returned
	pos  int                 // accesses copied so far
	own  *streamGen          // private generator once the replay outran the record
}

// Stream returns the access stream for context ctx of nctx total contexts.
func (g *Generator) Stream(ctx, nctx int) *Stream {
	if nctx <= 0 {
		nctx = 1
	}
	return streamRecords.stream(g, ctx, nctx)
}

// Next produces the context's next memory reference.
func (s *Stream) Next() Access {
	if s.i < s.n {
		x := s.buf[s.i]
		s.i++
		return unpackAccess(x)
	}
	if s.own == nil && s.refill() {
		return s.Next()
	}
	return s.own.next()
}

// refill copies the record's accesses from s.pos to the end of their chunk
// into s.buf, extending the record first if s has copied all of it, and
// reports whether there were any. When the record cannot grow, s continues
// on the record's generator if that stands exactly at s.pos, or on a fresh
// one fast-forwarded there.
func (s *Stream) refill() bool {
	r := s.rec
	for {
		r.mu.Lock()
		if s.pos < r.n {
			c := r.chunks[s.pos/streamChunk]
			s.i, s.n = s.pos%streamChunk, min(r.n-s.pos/streamChunk*streamChunk, streamChunk)
			copy(s.buf[s.i:s.n], c[s.i:s.n])
			s.pos += s.n - s.i
			r.mu.Unlock()
			return true
		}
		frozen, full := r.frozen, r.n == len(r.chunks)*streamChunk
		if !frozen && !full {
			r.extend()
		}
		r.mu.Unlock()
		if frozen {
			break
		}
		if full {
			r.table.grow(r)
		}
	}
	if s.own = r.table.takeGen(r, s.pos); s.own == nil {
		s.own = newStreamGen(r.g, r.key.ctx, r.key.nctx)
		for s.own.n < s.pos {
			s.own.next()
		}
	}
	return false
}

// The stream record. Every context stream the process asks for is kept as
// the packed accesses generated so far plus the generator that extends
// them, keyed exactly by the spill memo's never-reused (profile, seed) id
// and (ctx, nctx). Replayers extend a record on demand, a chunk at a time
// under its lock, so a record holds what its longest replay read. All
// records together stay within streamRecordBudget bytes: growth past it
// evicts whole records, oldest first, and a record that is itself the
// oldest stops growing instead. Replayers only ever copy out of a record
// under its lock, so an evicted record's chunks are reused at once and the
// table allocates no more chunks than the budget holds.

// streamRecordBudget bounds the bytes the table holds: every chunk it has
// allocated, in use or free, and the generators of its records.
const streamRecordBudget = 1 << 20

// streamGenBytes is what a record's generator counts against the budget.
// math/rand's source alone is 607 words (4.9 KiB);
// TestStreamRecordMemoryBounded checks the estimate.
const streamGenBytes = 6 << 10

// streamChunk is the number of accesses in a record chunk (512 B), the
// unit a record grows by and a replayer copies.
const streamChunk = 64

// streamChunkBytes is a chunk's size.
const streamChunkBytes = 8 * streamChunk

// An access packs into one word: the block number (Addr/64) in the top
// 45 bits, then 18 bits of Gap and the write flag in bit 0. Addresses
// stay below 2^51 (the shared region sits at 2^50) and gaps are a few
// hundred; an access that does not fit stops its record from growing.
const (
	packGapBits   = 18
	packBlockBits = 64 - packGapBits - 1
)

// packAccess packs a and reports whether it fits.
func packAccess(a Access) (uint64, bool) {
	if a.Addr&63 != 0 || a.Addr>>6 >= 1<<packBlockBits || a.Gap < 0 || a.Gap >= 1<<packGapBits {
		return 0, false
	}
	x := a.Addr>>6<<(packGapBits+1) | uint64(a.Gap)<<1
	if a.Write {
		x |= 1
	}
	return x, true
}

// unpackAccess inverts packAccess.
func unpackAccess(x uint64) Access {
	return Access{
		Addr:  x >> (packGapBits + 1) << 6,
		Write: x&1 != 0,
		Gap:   int(x >> 1 & (1<<packGapBits - 1)),
	}
}

// streamKey names one context stream.
type streamKey struct {
	id        uint64 // spillEntry.id of the generator's (profile, seed)
	ctx, nctx int
}

// streamRecord is one context stream's recorded prefix.
type streamRecord struct {
	key   streamKey
	g     *Generator
	table *streamTable

	mu      sync.Mutex
	chunks  []*[streamChunk]uint64
	n       int        // accesses recorded
	gen     *streamGen // generator standing at n; nil once handed on
	frozen  bool       // the record no longer grows
	evicted bool       // the table dropped the record and took its chunks
}

// extend fills the last chunk, or freezes the record at an access that
// does not pack. The caller holds r.mu.
func (r *streamRecord) extend() {
	c := r.chunks[len(r.chunks)-1]
	for i := r.n % streamChunk; i < streamChunk; i++ {
		x, ok := packAccess(r.gen.next())
		if !ok {
			r.frozen = true
			return
		}
		c[i] = x
		r.n++
	}
}

// streamTable is a budgeted FIFO of stream records. It locks records only
// while holding its own lock, and a record lock is never held while taking
// the table's, so a goroutine holds two record locks only under the
// table's.
type streamTable struct {
	mu    sync.Mutex
	recs  map[streamKey]*streamRecord
	order []*streamRecord        // oldest first
	free  []*[streamChunk]uint64 // chunks of evicted records
	bytes int                    // chunks allocated plus generators held
}

// streamRecords is the process-wide table behind Generator.Stream.
var streamRecords = newStreamTable()

func newStreamTable() *streamTable {
	return &streamTable{recs: map[streamKey]*streamRecord{}}
}

// stream returns a cursor at the start of g's stream for (ctx, nctx),
// admitting a new record, with its generator, on a miss.
func (t *streamTable) stream(g *Generator, ctx, nctx int) *Stream {
	k := streamKey{id: g.id, ctx: ctx, nctx: nctx}
	t.mu.Lock()
	r := t.recs[k]
	t.mu.Unlock()
	if r != nil {
		return &Stream{rec: r}
	}
	gen := newStreamGen(g, ctx, nctx) // seeding takes microseconds: unlocked
	t.mu.Lock()
	defer t.mu.Unlock()
	if r := t.recs[k]; r != nil { // a concurrent miss admitted it first
		return &Stream{rec: r}
	}
	for t.bytes+streamGenBytes > streamRecordBudget {
		if t.popFree() != nil {
			t.bytes -= streamChunkBytes
		} else {
			t.evictOldest()
		}
	}
	r = &streamRecord{key: k, g: g, table: t, gen: gen}
	t.recs[k] = r
	t.order = append(t.order, r)
	t.bytes += streamGenBytes
	return &Stream{rec: r}
}

// grow gives r one more chunk: a free one, a new one within the budget, or
// one taken from the oldest other records, evicting them. A record that
// is itself the oldest freezes instead.
func (t *streamTable) grow(r *streamRecord) {
	t.mu.Lock()
	defer t.mu.Unlock()
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.frozen || r.n < len(r.chunks)*streamChunk { // another replayer grew it
		return
	}
	for len(t.free) == 0 && t.bytes+streamChunkBytes > streamRecordBudget {
		if t.order[0] == r {
			r.frozen = true
			return
		}
		t.evictOldest()
	}
	c := t.popFree()
	if c == nil {
		c = new([streamChunk]uint64)
		t.bytes += streamChunkBytes
	}
	r.chunks = append(r.chunks, c)
}

// popFree takes a chunk off the free list, or returns nil. The caller
// holds t.mu.
func (t *streamTable) popFree() *[streamChunk]uint64 {
	n := len(t.free)
	if n == 0 {
		return nil
	}
	c := t.free[n-1]
	t.free[n-1] = nil
	t.free = t.free[:n-1]
	return c
}

// takeGen hands r's generator to a replayer at pos if it stands there.
func (t *streamTable) takeGen(r *streamRecord, pos int) *streamGen {
	t.mu.Lock()
	defer t.mu.Unlock()
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gen
	if g == nil || g.n != pos {
		return nil
	}
	r.gen = nil
	if !r.evicted {
		t.bytes -= streamGenBytes
	}
	return g
}

// evictOldest drops the oldest record and frees its chunks for reuse. It
// keeps only its generator, uncounted, for a replayer at its end; the
// replayers behind it continue on fast-forwarded generators. The caller
// holds t.mu and at most the lock of a newer record.
func (t *streamTable) evictOldest() {
	r := t.order[0]
	t.order[0] = nil
	t.order = t.order[1:]
	delete(t.recs, r.key)
	r.mu.Lock()
	defer r.mu.Unlock()
	t.free = append(t.free, r.chunks...)
	r.chunks, r.n = nil, 0
	r.frozen, r.evicted = true, true
	if r.gen != nil {
		t.bytes -= streamGenBytes
	}
}

// streamGen generates one context's accesses: the sequence every Stream
// of that context replays.
type streamGen struct {
	g       *Generator
	rng     *rand.Rand
	ctx     int
	nctx    int
	n       int // accesses generated
	seqPtr  uint64
	strPtr  uint64
	meanGap float64
	recent  [reuseWindow]uint64
	nRecent int
	wRecent int
}

// newStreamGen returns the generator of context ctx of nctx (nctx > 0).
func newStreamGen(g *Generator, ctx, nctx int) *streamGen {
	s := &streamGen{
		g:    g,
		rng:  rand.New(rand.NewSource(int64(mix(g.seed + uint64(ctx)*7919)))),
		ctx:  ctx,
		nctx: nctx,
	}
	refs := g.prof.MemRefsPerKInstr
	if refs <= 0 {
		refs = 250
	}
	s.meanGap = 1000.0/float64(refs) - 1
	if s.meanGap < 0 {
		s.meanGap = 0
	}
	s.seqPtr = s.privateBase() + uint64(s.rng.Intn(1024))*64
	s.strPtr = s.privateBase() + uint64(s.rng.Intn(1024))*64
	return s
}

// Region layout: the shared region holds a quarter of the working set; the
// remainder is split evenly among contexts.
const sharedBase = uint64(1) << 50

func (s *streamGen) sharedSize() uint64 {
	sz := uint64(s.g.prof.WorkingSetBytes) / 4
	if sz < 64 {
		sz = 64
	}
	return sz &^ 63
}

func (s *streamGen) privateSize() uint64 {
	sz := (uint64(s.g.prof.WorkingSetBytes) - s.sharedSize()) / uint64(s.nctx)
	if sz < 4096 {
		sz = 4096
	}
	return sz &^ 63
}

func (s *streamGen) privateBase() uint64 {
	return uint64(s.ctx+1) << 40
}

// next generates the context's next memory reference.
func (s *streamGen) next() Access {
	s.n++
	p := s.g.prof
	var a Access
	// Geometric-ish gap with the profile's memory intensity.
	if s.meanGap > 0 {
		a.Gap = int(s.rng.ExpFloat64() * s.meanGap)
	}
	a.Write = s.rng.Float64() < p.WriteFrac

	// Temporal reuse: revisit a recent address (different word of the
	// same or a nearby block), modeling the register/block-level reuse
	// of real programs.
	if s.nRecent > 0 && s.rng.Float64() < reuseFrac {
		a.Addr = s.recent[s.rng.Intn(s.nRecent)] &^ 63
		return a
	}

	shared := p.SharedFrac > 0 && s.rng.Float64() < p.SharedFrac
	var base, size uint64
	if shared {
		base, size = sharedBase, s.sharedSize()
	} else {
		base, size = s.privateBase(), s.privateSize()
	}

	u := s.rng.Float64()
	switch {
	case u < p.SeqFrac:
		s.seqPtr += 64
		if s.seqPtr < base || s.seqPtr >= base+size {
			s.seqPtr = base
		}
		a.Addr = s.seqPtr
	case u < p.SeqFrac+p.StridedFrac:
		stride := uint64(p.StrideBytes)
		if stride < 64 {
			stride = 64
		}
		s.strPtr += stride
		if s.strPtr < base || s.strPtr >= base+size {
			s.strPtr = base + uint64(s.rng.Int63n(int64(size/64)))*64
		}
		a.Addr = s.strPtr
	default:
		a.Addr = base + uint64(s.rng.Int63n(int64(size/64)))*64
	}
	a.Addr &^= 63
	s.recent[s.wRecent] = a.Addr
	s.wRecent = (s.wRecent + 1) % reuseWindow
	if s.nRecent < reuseWindow {
		s.nRecent++
	}
	return a
}
