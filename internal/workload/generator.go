package workload

import "sync"

// chunkBits is the chunk granularity at which value statistics are
// calibrated (the paper's Figures 12/13 use the 4-bit DESC interface).
const chunkBits = 4

// Generator produces deterministic block contents and per-context access
// streams for one benchmark profile.
type Generator struct {
	prof Profile
	seed uint64
	// pShared is the per-chunk probability of drawing the per-position
	// pattern value, derived from LastValueMatchFrac.
	pShared float64
	// patterns holds the per-position pattern nibble (Figures 12/13
	// mechanism: distinct blocks share values at the same positions).
	patterns [128]byte
	// thresholds quantized to 16 bits for the fast category draw.
	zeroThresh, sharedThresh uint16

	// spillCorr compensates zero-run spillover across offset groups so
	// the realized zero marginal matches the profile target; calibrated
	// at construction.
	spillCorr float64
	// The genBlock thresholds that depend only on the profile and
	// spillCorr, set with it by setSpillCorr: the zero-chain entry
	// draws of the low and high offset groups and the pattern draw
	// conditional on a non-zero chunk.
	p0Lo, p0Hi, psCond uint16

	// id names the generator's (profile, seed) pair in the process-wide
	// block cache; generators of equal pairs share it.
	id uint64
}

// NewGenerator builds a generator. The seed isolates runs; block data and
// access streams are fully determined by (profile, seed).
func NewGenerator(prof Profile, seed int64) *Generator {
	g := &Generator{prof: prof, seed: uint64(seed)*0x9E3779B97F4A7C15 + hashString(prof.Name)}
	g.pShared = solveSharedFrac(prof.ZeroChunkFrac, prof.LastValueMatchFrac)
	// The pattern multiset is fixed (decaying, mean 4.5, like real field
	// values); the per-benchmark seed only permutes which position carries
	// which value, so every profile sees the same value mix at shuffled
	// positions.
	base := [16]byte{1, 1, 1, 2, 2, 2, 3, 3, 4, 4, 5, 6, 7, 8, 10, 13}
	perm := [128]int{}
	for i := range perm {
		perm[i] = i
	}
	for i := len(perm) - 1; i > 0; i-- {
		j := int(mix(g.seed^uint64(i)*0xD6E8FEB86659FD93) % uint64(i+1))
		perm[i], perm[j] = perm[j], perm[i]
	}
	for c := range g.patterns {
		g.patterns[c] = base[perm[c]%16]
	}
	g.zeroThresh = uint16(prof.ZeroChunkFrac * 65536)
	g.sharedThresh = g.zeroThresh + uint16(g.pShared*65536)
	var corr float64
	corr, g.id = spillCorrs.get(spillKey{prof, seed}, g.calibrateSpill)
	g.setSpillCorr(corr)
	return g
}

// setSpillCorr sets the spill correction and the genBlock thresholds
// derived from it. Markov zero chain: P(zero | prev zero) = zeroRunProb,
// with the entry probability chosen so the stationary marginal equals
// the profile's ZeroChunkFrac. Conditional on non-zero, the pattern
// probability rescales to keep its marginal too.
func (g *Generator) setSpillCorr(corr float64) {
	g.spillCorr = corr
	// Complement words turn zero chunks into 0xF, diluting the zero
	// marginal; the draw probability compensates so the measured zero
	// fraction still meets the profile target.
	pz := g.prof.ZeroChunkFrac / (1 - wordComplProb)
	if pz > 0.9 {
		pz = 0.9
	}
	// Per-offset chain entry probabilities targeting the split zero
	// marginals: p0 = pz(1-qz)/(1-pz) for each offset group.
	// Zero runs spill across offset groups, lifting the realized
	// marginal above the per-offset entry targets; the calibrated
	// correction compensates.
	pzLo, pzHi := zeroSplit(pz * corr)
	entry := func(p float64) uint16 {
		e := p * (1 - zeroRunProb) / (1 - p)
		if e >= 1 {
			return 65535
		}
		return uint16(e * 65536)
	}
	g.p0Lo, g.p0Hi = entry(pzLo), entry(pzHi)
	psCondf := float64(g.sharedThresh-g.zeroThresh) / 65536 / (1 - pz)
	g.psCond = uint16(65535)
	if psCondf < 1 {
		g.psCond = uint16(psCondf * 65536)
	}
}

// spillKey identifies a generator's content: calibrateSpill and every
// generated block are pure functions of the profile and the seed.
type spillKey struct {
	prof Profile
	seed int64
}

// spillMemoCap bounds the per-key memo. A sweep touches a handful of
// (profile, seed) pairs; the bound only matters for callers that choose
// seeds freely (the descserve daemon), whose oldest entries are evicted.
const spillMemoCap = 64

// spillMemo is a fixed-capacity FIFO table of per-key state, shared by
// every generator in the process: the calibrated spill correction and the
// key's block-cache id.
type spillMemo struct {
	mu     sync.Mutex
	keys   [spillMemoCap]spillKey
	vals   [spillMemoCap]spillEntry
	n      int    // filled slots
	next   int    // slot the next insertion overwrites
	lastID uint64 // the most recently issued id; ids start at 1
}

// spillEntry is one key's memoized state. Each insertion takes a fresh id,
// so a key that is evicted and later re-admitted never sees the blocks
// cached under its old id, and no two keys ever share one.
type spillEntry struct {
	corr float64
	id   uint64
}

// spillCorrs memoizes calibrateSpill and the block-cache ids across
// NewGenerator calls.
var spillCorrs spillMemo

// get returns the memoized correction and id for k, or computes the
// correction with calibrate (outside the lock) and records it under a new
// id. A key that does not equal itself (a NaN profile field) never hits,
// so it is calibrated, and given an id of its own, every time.
func (m *spillMemo) get(k spillKey, calibrate func() float64) (corr float64, id uint64) {
	m.mu.Lock()
	e, ok := m.find(k)
	m.mu.Unlock()
	if ok {
		return e.corr, e.id
	}
	corr = calibrate()
	m.mu.Lock()
	defer m.mu.Unlock()
	if e, ok := m.find(k); ok { // a concurrent miss recorded it first
		return e.corr, e.id
	}
	m.lastID++
	e = spillEntry{corr: corr, id: m.lastID}
	m.keys[m.next], m.vals[m.next] = k, e
	m.next = (m.next + 1) % spillMemoCap
	if m.n < spillMemoCap {
		m.n++
	}
	return e.corr, e.id
}

// find scans the filled slots for k; the caller holds m.mu.
func (m *spillMemo) find(k spillKey) (spillEntry, bool) {
	for i := 0; i < m.n; i++ {
		if m.keys[i] == k {
			return m.vals[i], true
		}
	}
	return spillEntry{}, false
}

// calibrateSpill bisects the spill correction until the realized zero
// fraction matches the profile target on a small deterministic sample,
// and returns it (leaving g.spillCorr set to it). NewGenerator reaches it
// through spillCorrs, so it runs once per distinct (profile, seed).
func (g *Generator) calibrateSpill() float64 {
	measure := func(corr float64) float64 {
		g.setSpillCorr(corr)
		zeros, total := 0, 0
		var buf [64]byte
		for i := 0; i < 240; i++ {
			addr := mix(g.seed+uint64(i)*402653189) % (1 << 28) &^ 63
			g.genBlock(addr, &buf)
			for c := 0; c < 128; c++ {
				if (buf[c/2]>>(4*uint(c%2)))&0xF == 0 {
					zeros++
				}
				total++
			}
		}
		return float64(zeros) / float64(total)
	}
	lo, hi := 0.5, 1.2
	for i := 0; i < 18; i++ {
		mid := (lo + hi) / 2
		if measure(mid) < g.prof.ZeroChunkFrac {
			lo = mid
		} else {
			hi = mid
		}
	}
	g.setSpillCorr((lo + hi) / 2)
	return g.spillCorr
}

// Profile returns the generator's benchmark profile.
func (g *Generator) Profile() Profile { return g.prof }

// zeroSplit returns the per-offset zero probabilities (top quarter of the
// word vs the rest) for a given marginal, renormalized under the cap.
func zeroSplit(pz float64) (lo, hi float64) {
	hi = pz * zeroHighWeight
	if hi > zeroProbCap {
		hi = zeroProbCap
	}
	lo = (16*pz - 4*hi) / 12
	if lo < 0 {
		lo = 0
	}
	return lo, hi
}

// zeroMatch is the zero-zero collision term of the position-match model:
// E[pz(c)^2] over offsets.
func zeroMatch(pz float64) float64 {
	lo, hi := zeroSplit(pz)
	return (12*lo*lo + 4*hi*hi) / 16
}

// randMatchProb is the collision probability of two independent draws of
// the low-biased non-zero nibble (min of two uniforms over 1..15):
// sum over k of ((29-2k)/225)^2 = 4495/50625.
const randMatchProb = 4495.0 / 50625.0

// solveSharedFrac finds the probability ps of drawing the position pattern
// such that two independently drawn blocks match at a position with the
// target probability:
//
//	match = pz^2 + ((1-wordRepeatProb)*ps)^2 + (1-pz-ps)^2 * randMatchProb
//
// (zero/zero, pattern/pattern, or colliding random nibbles; word
// repetition replaces a pattern draw with the neighboring word's value,
// discounting the pattern term). Solved by bisection on the increasing
// branch; clamped to [0, 1-pz].
func solveSharedFrac(pz, target float64) float64 {
	a := 1 - pz
	match := func(ps float64) float64 {
		pr := a - ps
		pe := (1 - wordRepeatProb) * ps
		return zeroMatch(pz) + pe*pe + pr*pr*randMatchProb
	}
	lo := a / 16 // minimum of the quadratic
	hi := a
	if target <= match(lo) {
		return 0
	}
	if target >= match(hi) {
		return hi
	}
	for i := 0; i < 60; i++ {
		mid := (lo + hi) / 2
		if match(mid) < target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// hashString is a small FNV-style string hash for seeding.
func hashString(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// mix is splitmix64: a strong 64-bit finalizer used to derive per-chunk
// randomness deterministically from (seed, addr, chunk).
func mix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// BlockData returns the 64-byte content of the block at addr. Contents are
// deterministic, so refetching a block yields identical data; positions
// draw from {zero, per-position pattern, random nibble} with the profile's
// calibrated probabilities, so distinct blocks share structure at the same
// chunk positions — the two mechanisms behind Figures 12 and 13.
func (g *Generator) BlockData(addr uint64) []byte {
	addr &^= 63 // block aligned
	block := make([]byte, 64)
	g.FillBlockData(addr, block)
	return block
}

// Spatial-structure constants, shared by all profiles. Real cache blocks
// are not chunk-wise independent: zero chunks cluster into zero bytes and
// words (whole-line zero fills, sparse structures), and adjacent words
// often repeat (arrays of identical values, padded records). Both effects
// matter to the baselines — zero clustering is what dynamic zero
// compression exploits, and word repetition lowers the beat-to-beat
// Hamming distance that conventional binary and bus-invert pay — while
// leaving DESC's per-chunk statistics (the marginals of Figures 12/13)
// untouched.
const (
	// zeroRunProb is the Markov probability that a chunk following a
	// zero chunk is also zero (mean zero-run of five chunks).
	zeroRunProb = 0.80
	// wordRepeatProb is the probability that a 64-bit word repeats the
	// previous word of the same block verbatim.
	wordRepeatProb = 0.15
	// wordComplProb is the probability that a 64-bit word is the bitwise
	// complement of the previous word (negative integers and sign flips
	// in two's complement data) — the high-Hamming-distance transitions
	// that bus-invert coding exists to absorb.
	wordComplProb = 0.06
	// zeroHighWeight skews the zero probability toward the top quarter
	// of each 64-bit word: small integers and pointers concentrate zeros
	// in their upper bytes, vertically aligning zero bytes across words —
	// the structure dynamic zero compression exploits. The low weight is
	// renormalized per profile so the zero marginal is preserved even
	// when the top-offset probability saturates.
	zeroHighWeight = 2.2
	// zeroProbCap bounds any single offset's zero probability.
	zeroProbCap = 0.95
)

// lowNibble draws a non-zero nibble biased toward small values (the min of
// two uniform draws over 1..15), matching the decaying non-zero value
// distribution of real L2 traffic: the paper reports an average
// transmitted chunk value of about five under zero skipping (Section 5.3).
func lowNibble(draw uint16) byte {
	a := byte(draw&0xFF) % 15
	b := byte(draw>>8) % 15
	if b < a {
		a = b
	}
	return a + 1
}

// fix16 converts a probability to 16-bit fixed point for hash-draw
// comparisons.
func fix16(p float64) uint16 { return uint16(p * 65536) }

// zeroRunThresh, wordRepeatThresh and wordComplThresh are the structure
// probabilities in fixed point (complement stacks above repeat in the same
// draw).
var (
	zeroRunThresh    = fix16(zeroRunProb)
	wordRepeatThresh = fix16(wordRepeatProb)
	wordComplThresh  = fix16(wordRepeatProb + wordComplProb)
)

// FillBlockData is BlockData into a caller-provided 64-byte buffer,
// avoiding allocation on hot simulator paths. Blocks come from the
// process-wide block cache (see blockcache.go), shared by every generator
// of the same (profile, seed); a miss generates the block and records it.
//
//desclint:hotpath
func (g *Generator) FillBlockData(addr uint64, block []byte) {
	k := blockKey{id: g.id, addr: addr &^ 63}
	if blocks.get(k, block) {
		return
	}
	var buf [64]byte
	g.genBlock(k.addr, &buf)
	blocks.put(k, &buf)
	copy(block, buf[:])
}

// genBlock synthesizes the block at addr into buf. Each drawn chunk takes
// one 64-bit hash and uses its low 32 bits (two 16-bit draws: the
// zero-chain draw and the value draw).
//
//desclint:hotpath
func (g *Generator) genBlock(addr uint64, buf *[64]byte) {
	const chunksPerBlock = 512 / chunkBits
	const chunksPerWord = 64 / chunkBits

	qz := zeroRunThresh
	p0Lo, p0Hi, psCond := g.p0Lo, g.p0Hi, g.psCond

	prevZero := false
	for c := 0; c < chunksPerBlock; c++ {
		// Word structure: decided once per word from its own draw —
		// repeat the previous word, complement it, or draw fresh.
		if c%chunksPerWord == 0 && c > 0 {
			wh := mix(g.seed ^ mix(addr+uint64(c)*0x9E6C63D0876A9A63))
			if d := uint16(wh); d < wordComplThresh {
				if d < wordRepeatThresh {
					copy(buf[c/2:c/2+8], buf[c/2-8:c/2])
				} else {
					for i := 0; i < 8; i++ {
						buf[c/2+i] = ^buf[c/2-8+i]
					}
				}
				c += chunksPerWord - 1
				prevZero = buf[(c)/2]>>(4*uint(c%2))&0xF == 0
				continue
			}
		}
		h := mix(g.seed ^ mix(addr+uint64(c)*0x632BE59BD9B4E019))
		zdraw := uint16(h)
		vdraw := uint16(h >> 16)
		var v byte
		zThresh := p0Lo
		if c%16 >= 12 {
			zThresh = p0Hi
		}
		if prevZero {
			zThresh = qz
		}
		switch {
		case zdraw < zThresh:
			v = 0
		case vdraw < psCond:
			v = g.patterns[c]
		default:
			v = lowNibble(vdraw)
		}
		prevZero = v == 0
		if c%2 == 0 {
			buf[c/2] = v
		} else {
			buf[c/2] |= v << 4
		}
	}
}

// MeasureValueStats samples n blocks from the generator's address space and
// returns the measured zero-chunk fraction and the cross-block
// position-match fraction, the quantities plotted in Figures 12 and 13.
func (g *Generator) MeasureValueStats(n int) (zeroFrac, matchFrac float64) {
	if n < 2 {
		n = 2
	}
	var prev []byte
	zeros, matches, chunks, pairs := 0, 0, 0, 0
	for i := 0; i < n; i++ {
		addr := mix(g.seed+uint64(i)*104729) % (1 << 30) &^ 63
		block := g.BlockData(addr)
		for c := 0; c < 128; c++ {
			v := (block[c/2] >> (4 * uint(c%2))) & 0xF
			if v == 0 {
				zeros++
			}
			chunks++
			if prev != nil {
				pv := (prev[c/2] >> (4 * uint(c%2))) & 0xF
				if v == pv {
					matches++
				}
				pairs++
			}
		}
		prev = block
	}
	return float64(zeros) / float64(chunks), float64(matches) / float64(pairs)
}

// MeanChunkValue returns the average transmitted (non-skipped) chunk value
// over n sampled blocks under zero skipping — the quantity the paper
// reports as "approximately five" (Section 5.3).
func (g *Generator) MeanChunkValue(n int) float64 {
	sum, cnt := 0.0, 0
	for i := 0; i < n; i++ {
		addr := mix(g.seed+uint64(i)*15485863) % (1 << 30) &^ 63
		block := g.BlockData(addr)
		for c := 0; c < 128; c++ {
			v := (block[c/2] >> (4 * uint(c%2))) & 0xF
			if v != 0 {
				sum += float64(v)
				cnt++
			}
		}
	}
	if cnt == 0 {
		return 0
	}
	return sum / float64(cnt)
}
