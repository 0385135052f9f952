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

// Stream is the access sequence of one hardware context, a pure function
// of (profile, seed, ctx, nctx). Generator.Stream generates it privately.
// SharedStreams.Stream instead returns a cursor over a record that the
// runs of one sweep group share: the cursor copies a chunk at a time out
// of the record and, once it outruns a record that can no longer grow,
// continues on a private generator, bit for bit.
type Stream struct {
	rec  *streamRecord
	buf  [streamChunk]uint64 // accesses copied out of the record
	i, n int                 // buf[i:n] is not yet returned
	pos  int                 // accesses copied so far
	own  *streamGen          // the private generator, once there is one
}

// Stream returns the access stream for context ctx of nctx total contexts.
// The stream is generated privately and nothing is recorded.
func (g *Generator) Stream(ctx, nctx int) *Stream {
	return &Stream{own: newStreamGen(g, ctx, max(nctx, 1))}
}

// Next produces the context's next memory reference.
func (s *Stream) Next() Access {
	if s.i < s.n {
		x := s.buf[s.i]
		s.i++
		return unpackAccess(x)
	}
	if s.own == nil {
		if s.refill() {
			return s.Next()
		}
		// s read the frozen record to its end: generate the rest.
		r := s.rec
		s.own = newStreamGen(r.g, r.ctx, r.nctx)
		for s.own.n < s.pos {
			s.own.next()
		}
	}
	return s.own.next()
}

// refill copies up to a chunk of the record's accesses from s.pos into
// s.buf, extending the record first if s has copied all of it, and
// reports whether there were any: false only once s has read a frozen
// record to its end.
func (s *Stream) refill() bool {
	r := s.rec
	r.mu.Lock()
	defer r.mu.Unlock()
	if s.pos == len(r.acc) && !r.frozen {
		r.extend()
	}
	s.i, s.n = 0, copy(s.buf[:], r.acc[s.pos:])
	s.pos += s.n
	return s.n > 0
}

// SharedStreams records the access streams of one generator for the runs
// that read them. The runs of a sweep over one benchmark and seed all read
// the same streams, so runs that share a SharedStreams generate each
// stream once. Each (ctx, nctx) stream is kept as the packed accesses
// generated so far, extended a chunk at a time, under the stream's lock,
// by whichever cursor first needs them. Cursors only copy out under that
// lock and never hold a pointer into a record. Nothing bounds or evicts a
// record: a SharedStreams holds what its longest reader read and is
// collected once its readers drop it.
type SharedStreams struct {
	g    *Generator
	mu   sync.Mutex
	recs map[[2]int]*streamRecord // by (ctx, nctx)
}

// NewSharedStreams returns an empty record of g's streams.
func NewSharedStreams(g *Generator) *SharedStreams {
	return &SharedStreams{g: g, recs: map[[2]int]*streamRecord{}}
}

// Stream returns a cursor at the start of the stream for context ctx of
// nctx total contexts.
func (s *SharedStreams) Stream(ctx, nctx int) *Stream {
	nctx = max(nctx, 1)
	k := [2]int{ctx, nctx}
	s.mu.Lock()
	defer s.mu.Unlock()
	r := s.recs[k]
	if r == nil {
		r = &streamRecord{g: s.g, ctx: ctx, nctx: nctx}
		s.recs[k] = r
	}
	return &Stream{rec: r}
}

// streamChunk is the number of accesses a record grows by and a cursor
// copies at a time.
const streamChunk = 64

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

// streamRecord is one context stream's recorded prefix.
type streamRecord struct {
	g         *Generator
	ctx, nctx int

	mu     sync.Mutex
	acc    []uint64   // the packed accesses recorded so far
	gen    *streamGen // the generator standing at len(acc), made on first use
	frozen bool       // an access did not pack: the record no longer grows
}

// extend records up to a chunk more accesses, or freezes the record at
// one that does not pack. The caller holds r.mu.
func (r *streamRecord) extend() {
	if r.gen == nil {
		r.gen = newStreamGen(r.g, r.ctx, r.nctx)
	}
	for range streamChunk {
		x, ok := packAccess(r.gen.next())
		if !ok {
			r.frozen, r.gen = true, nil
			return
		}
		r.acc = append(r.acc, x)
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
