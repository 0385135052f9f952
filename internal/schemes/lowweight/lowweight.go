// Package lowweight implements the enumerative low-weight codebook shared
// by the literature codecs in internal/schemes: a bijection between k-bit
// data words and the 2^k binary vectors of length n = k+1 with Hamming
// weight at most w = k/2.
//
// Chee & Colbourn ("Optimal Memoryless Encoding for Low Power Off-Chip
// Data Buses", arXiv:0712.2640) show that the memoryless code minimizing
// expected bus energy maps data words onto a set of minimum-weight
// codewords. With one spare wire per segment the optimal codebook has a
// closed form: for odd n, exactly 2^(n-1) vectors of length n carry
// weight <= (n-1)/2, so k-bit words fill the weight-limited set
// perfectly. Valentini & Chiani ("An Implementation of the Optimal Scheme
// for Energy Efficient Bus Encoding", arXiv:2303.06409) make the mapping
// practical through enumerative (combinatorial-number-system) coding,
// which ranks the codebook lexicographically with a walk down a
// precomputed cumulative binomial table. This package follows that
// construction.
//
// The codebook is a pure function of k, so New hands out one immutable
// Code per width, built on first use and shared by every link in the
// process. Up to 16 data bits (tableBits) the code carries full encode
// and decode tables, filled by the walk at construction (about 0.5 MiB
// for all table widths together), so a segment costs one lookup; widths
// that divide a byte also carry a byte table that encodes the 8/k
// segments of a data byte at once. Wider codes encode a byte group of
// codeword positions per step (see groupRow), at most eight steps for a
// 64-bit segment. Both stop early: once the remaining rank is below
// 2^budget the rest of the codeword is that rank in binary (so every
// rank below 2^(k/2) encodes to itself). Decoding sums the binomials of
// set bits only. Link (link.go) is the segment kernel of fpf and lwc.
//
// Encode and Decode are allocation-free and safe for concurrent use.
package lowweight

import (
	"fmt"
	"math/bits"
	"sync"
)

// MaxDataBits is the widest supported segment. Every cumulative count the
// 64-bit walk touches — the largest is S(64,32), about 1.0e19 — fits in a
// uint64, so wider segments would need multi-word ranks.
const MaxDataBits = 64

// tableBits is the widest segment whose codebook is fully tabulated:
// 2^k uint16 codeword entries plus 2^(k+1) uint16 rank entries, 384 KiB
// at k = 16.
const tableBits = 16

// groupBits is the width of a byte group, the step of the wide encoder,
// and groupBuckets the most guess buckets one group row holds.
const (
	groupBits    = 8
	groupBuckets = 1024
)

// Code is a weight-limited enumerative codebook for one segment geometry.
// It is immutable after construction.
type Code struct {
	k int // data bits per segment
	n int // code bits per segment: k data wires + 1 spare wire
	w int // maximum codeword weight, k/2

	// s[m*(w+1)+b] counts the length-m binary vectors of weight <= b —
	// the cumulative binomial ("how many codewords start with a 0 here")
	// that enumerative coding walks. m <= n-1, b <= w.
	s []uint64

	// extFrom is s[k][w], the first rank whose codeword drives the
	// spare wire (position k is the walk's most significant position).
	extFrom uint64
	extBit  uint64 // 1 << k, k <= tableBits: the spare wire in a dec index

	// Tables for k <= tableBits, nil above. enc[rank] is the codeword's
	// data-wire pattern (the spare wire is rank >= extFrom); dec is
	// indexed by the full codeword, lo | ext<<k. For k dividing 8,
	// byteEnc[x] holds the codewords of the 8/k segments of data byte x
	// in its low byte and their spare wires in the high byte, each at
	// its segment's lowest bit.
	enc     []uint16
	dec     []uint16
	byteEnc *[1 << groupBits]uint16

	// rows[g*(w+1)+b] is the encoder step for byte group g (codeword
	// positions 8g and up) entered with weight budget b, for k above
	// tableBits; rows no rank reaches are empty.
	rows []groupRow
}

// groupRow is one wide encoder step: the patterns of a byte group,
// entered with budget b, whose completion set is nonempty (weight <= b),
// in the walk's order. Pattern i takes the ranks from prefix[i], the
// completions of every earlier pattern, up to prefix[i+1]. A rank's
// bucket is hi64(rank*mul); guess maps it to the first pattern any rank
// of the bucket can take, and a short forward scan over prefix finishes.
type groupRow struct {
	prefix []uint64 // len(pat)+1 entries; the last is the row's rank count
	pat    []uint8
	guess  []uint8
	mul    uint64
}

// shared holds the process-wide codebooks, one per even width.
var shared [MaxDataBits/2 + 1]struct {
	once sync.Once
	code *Code
}

// ValidateSegment checks the constraints the codebook imposes on a
// scheme's segment geometry: an even width within the supported range
// that tiles the data wires. Both literature codecs (fpf, lwc) segment
// identically and share this check; scheme names the caller in errors.
func ValidateSegment(scheme string, wires, seg int) error {
	if seg%2 != 0 || seg < 2 || seg > MaxDataBits {
		return fmt.Errorf("lowweight: %s: segment of %d data bits is not an even width in [2,%d]",
			scheme, seg, MaxDataBits)
	}
	if wires <= 0 || wires%seg != 0 {
		return fmt.Errorf("lowweight: %s: %d wires not divisible into %d-bit segments", scheme, wires, seg)
	}
	return nil
}

// New returns the codebook for k-bit data segments. k must be even (so
// the weight bound k/2 is integral and the 2^k codewords fill the
// weight-limited set exactly) and at most MaxDataBits. Every call with
// the same k returns the same shared, immutable Code.
func New(k int) (*Code, error) {
	if k < 2 || k > MaxDataBits || k%2 != 0 {
		return nil, fmt.Errorf("lowweight: segment of %d data bits is not an even width in [2,%d]", k, MaxDataBits)
	}
	e := &shared[k/2]
	e.once.Do(func() { e.code = build(k) })
	return e.code, nil
}

// build constructs the codebook for a valid width k.
func build(k int) *Code {
	c := &Code{k: k, n: k + 1, w: k / 2}
	c.s = make([]uint64, c.n*(c.w+1))
	for m := 0; m < c.n; m++ {
		for b := 0; b <= c.w; b++ {
			switch {
			case m == 0:
				c.s[c.at(m, b)] = 1 // only the empty vector
			case b == 0:
				c.s[c.at(m, b)] = 1 // only the all-zero vector
			default:
				c.s[c.at(m, b)] = c.s[c.at(m-1, b)] + c.s[c.at(m-1, b-1)]
			}
		}
	}
	c.extFrom = c.s[c.at(k, c.w)]
	if k > tableBits {
		c.buildRows()
		return c
	}
	c.extBit = 1 << uint(k)
	c.enc = make([]uint16, 1<<uint(k))
	c.dec = make([]uint16, 1<<uint(k+1))
	for rank := range c.enc {
		lo, ext := c.walkEncode(uint64(rank))
		c.enc[rank] = uint16(lo)
		if ext {
			lo |= c.extBit
		}
		c.dec[lo] = uint16(rank)
	}
	if groupBits%k == 0 {
		byteEnc := new([1 << groupBits]uint16)
		for x := range byteEnc {
			lo, spare := c.encodeRun(uint64(x), groupBits/k) // by enc: byteEnc is still nil
			byteEnc[x] = uint16(lo | spare<<groupBits)
		}
		c.byteEnc = byteEnc
	}
	return c
}

// buildRows fills the wide encoder's rows. Group g covers the m codeword
// positions from base = 8g (m = 8, less in the top group of a width that
// is not a multiple of 8). Rows exist only for the budgets a rank can
// bring there (the spare wire and each position above spend at most one)
// that are below base+m: with more budget than positions left the rank
// is below 2^budget and the encoder has stopped.
func (c *Code) buildRows() {
	groups := (c.k + groupBits - 1) / groupBits
	c.rows = make([]groupRow, groups*(c.w+1))
	for g := 0; g < groups; g++ {
		base := g * groupBits
		m := min(groupBits, c.k-base)
		for b := max(1, c.w-1-(c.k-base-m)); b <= c.w && b < base+m; b++ {
			r := &c.rows[g*(c.w+1)+b]
			var total uint64
			for p := 0; p < 1<<uint(m); p++ {
				if wt := bits.OnesCount8(uint8(p)); wt <= b {
					r.prefix = append(r.prefix, total)
					r.pat = append(r.pat, uint8(p))
					total += c.s[c.at(base, b-wt)]
				}
			}
			r.prefix = append(r.prefix, total)
			// mul = floor(buckets * 2^64 / total), with fewer buckets
			// than ranks, so hi64(rank*mul) < buckets below total.
			r.mul, _ = bits.Div64(min(groupBuckets, total-1), 0, total)
			for i := range r.pat {
				last, _ := bits.Mul64(r.prefix[i+1]-1, r.mul)
				for uint64(len(r.guess)) <= last {
					r.guess = append(r.guess, uint8(i))
				}
			}
		}
	}
}

// at indexes the cumulative count of length-m vectors of weight <= b.
func (c *Code) at(m, b int) int { return m*(c.w+1) + b }

// MaxWeight returns w = k/2, the guaranteed per-segment weight bound.
func (c *Code) MaxWeight() int { return c.w }

// Encode maps a data word (rank) to its codeword: bits 0..k-1 in lo are
// the data-wire pattern, ext is the spare wire. Rank 0 is the all-zero
// codeword and every rank below 2^(k/2) encodes to itself, so zero-heavy
// data drives few wires. Values above 2^k-1 must not be passed for
// k < 64; for k = 64 every uint64 is a valid rank.
func (c *Code) Encode(rank uint64) (lo uint64, ext bool) {
	lo, spare := c.encodeRun(rank, 1)
	return lo, spare != 0
}

// groupEncode is the wide encoder: the enumerative walk taken a byte
// group at a time from the top, each group's pattern read from its row.
// It stops where walkEncode does.
//
//desclint:hotpath wide fpf/lwc segments encode per byte group
func (c *Code) groupEncode(rank uint64) (lo uint64, ext bool) {
	budget := c.w
	if rank >= c.extFrom {
		rank -= c.extFrom
		budget--
		ext = true
	}
	for g := (c.k - 1) / groupBits; rank >= 1<<uint(budget); g-- {
		r := &c.rows[g*(c.w+1)+budget]
		i := r.find(rank)
		rank -= r.prefix[i]
		lo |= uint64(r.pat[i]) << uint(g*groupBits)
		budget -= bits.OnesCount8(r.pat[i])
	}
	return lo | rank, ext
}

// find returns the index of the pattern whose ranks hold rank.
//
//desclint:hotpath runs once per wide encoder step
func (r *groupRow) find(rank uint64) int {
	bucket, _ := bits.Mul64(rank, r.mul)
	i := int(r.guess[bucket])
	for r.prefix[i+1] <= rank {
		i++
	}
	return i
}

// encodeRun encodes the n segments packed k bits apart in x (n*k <= 64,
// no bits of x above them) into their data-wire patterns, packed the same
// way, and their spare wires, each at its segment's lowest bit. Widths
// dividing a byte look up all eight data bytes: zero encodes to zero.
//
//desclint:hotpath runs once per word of segments
func (c *Code) encodeRun(x uint64, n int) (lo, spare uint64) {
	k := uint(c.k)
	switch {
	case c.byteEnc != nil:
		for i := 0; i < 8; i++ {
			e := c.byteEnc[x>>56]
			x <<= 8
			lo = lo<<8 | uint64(uint8(e))
			spare = spare<<8 | uint64(e>>groupBits)
		}
	case c.enc != nil:
		for i := uint(0); i < uint(n); i++ {
			rank := x >> (k * i & 63) & (1<<k - 1)
			lo |= uint64(c.enc[rank]) << (k * i & 63)
			if rank >= c.extFrom {
				spare |= 1 << (k * i & 63)
			}
		}
	default:
		for i := uint(0); i < uint(n); i++ {
			seg, ext := c.groupEncode(x >> (k * i & 63) & (1<<k - 1))
			lo |= seg << (k * i & 63)
			if ext {
				spare |= 1 << (k * i & 63)
			}
		}
	}
	return lo, spare
}

// walkEncode is the enumerative walk from the most significant codeword
// position (the spare wire) down. At each position it emits a 1 when the
// rank is at least the count of completions that put a 0 there. Once the
// rank is below 2^budget every remaining completion count it meets is a
// power of two (s[p][b] = 2^p for p <= b, and s[p][b] >= 2^b above), so
// the rest of the codeword is the rank itself in binary and the walk
// stops. On random data each data position is a coin flip, so the step
// is branch-free: the borrow of rank - below selects it. It fills the
// tables.
func (c *Code) walkEncode(rank uint64) (lo uint64, ext bool) {
	budget := c.w
	if rank >= c.extFrom {
		rank -= c.extFrom
		budget--
		ext = true
	}
	for p := c.k - 1; rank >= 1<<uint(budget); p-- {
		below := c.s[c.at(p, budget)]
		_, borrow := bits.Sub64(rank, below, 0)
		take := borrow ^ 1
		rank -= below & -take
		budget -= int(take)
		lo |= take << uint(p)
	}
	return lo | rank, ext
}

// Decode is the inverse of Encode: it ranks the codeword back to the
// data word. Codewords of weight above MaxWeight are not produced by
// Encode and must not be passed.
//
//desclint:hotpath every fpf/lwc segment crosses this lookup or walk
func (c *Code) Decode(lo uint64, ext bool) uint64 {
	if c.dec == nil {
		return c.walkDecode(lo, ext)
	}
	if ext {
		lo |= c.extBit
	}
	return uint64(c.dec[lo])
}

// walkDecode sums, for each set codeword bit from the top, the count of
// codewords that hold a 0 there — set bits only. The same power-of-two
// argument as walkEncode ends it early: once every remaining set bit
// lies below the remaining budget, their contribution is lo itself.
// It stays out of line so that Decode's table path inlines.
//
//desclint:hotpath wide fpf/lwc segments walk per word
//go:noinline
func (c *Code) walkDecode(lo uint64, ext bool) uint64 {
	var rank uint64
	budget := c.w
	if ext {
		rank = c.extFrom
		budget--
	}
	for lo >= 1<<uint(budget) {
		p := 63 - bits.LeadingZeros64(lo)
		rank += c.s[c.at(p, budget)]
		budget--
		lo &^= 1 << uint(p)
	}
	return rank + lo
}

// Field returns the k-bit field (k <= 64) at bit offset off of words,
// LSB-first in the repository's bit order; the field may straddle two
// words. off+k must not exceed 64*len(words).
//
//desclint:hotpath once per fpf/lwc segment
func Field(words []uint64, off, k int) uint64 {
	w, sh := off>>6, uint(off&63)
	v := words[w] >> sh
	if sh != 0 && int(sh)+k > 64 {
		v |= words[w+1] << (64 - sh)
	}
	if k < 64 {
		v &= 1<<uint(k) - 1
	}
	return v
}

// OrField ORs the k-bit value v (k <= 64, no bits above k) into words at
// bit offset off — the inverse of Field on a zeroed word buffer.
//
//desclint:hotpath once per fpf/lwc segment
func OrField(words []uint64, off, k int, v uint64) {
	w, sh := off>>6, uint(off&63)
	words[w] |= v << sh
	if sh != 0 && int(sh)+k > 64 {
		words[w+1] |= v >> (64 - sh)
	}
}
