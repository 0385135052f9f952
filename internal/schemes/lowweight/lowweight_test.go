package lowweight

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"math/rand"
	"sync"
	"testing"

	"desc/internal/schemes/lowweight/reference"
	"desc/internal/workload"
)

// TestCodebookBijection exhaustively checks small segment widths: every
// rank encodes to a distinct codeword of weight at most k/2 and decodes
// back to itself — the enumerative code is a bijection onto the
// weight-limited set.
func TestCodebookBijection(t *testing.T) {
	for _, k := range []int{2, 4, 6, 8, 10, 12} {
		c, err := New(k)
		if err != nil {
			t.Fatalf("New(%d): %v", k, err)
		}
		if c.k != k || c.n != k+1 || c.MaxWeight() != k/2 {
			t.Fatalf("k=%d: geometry k=%d n=%d w=%d", k, c.k, c.n, c.MaxWeight())
		}
		seen := make(map[[2]uint64]uint64, 1<<uint(k))
		for rank := uint64(0); rank < 1<<uint(k); rank++ {
			lo, ext := c.Encode(rank)
			weight := bits.OnesCount64(lo)
			if ext {
				weight++
			}
			if weight > c.MaxWeight() {
				t.Fatalf("k=%d rank=%d: codeword %b/%v weight %d > %d", k, rank, lo, ext, weight, c.MaxWeight())
			}
			if lo>>uint(k) != 0 {
				t.Fatalf("k=%d rank=%d: codeword %b spills past %d data bits", k, rank, lo, k)
			}
			key := [2]uint64{lo, 0}
			if ext {
				key[1] = 1
			}
			if prev, dup := seen[key]; dup {
				t.Fatalf("k=%d: ranks %d and %d share codeword %b/%v", k, prev, rank, lo, ext)
			}
			seen[key] = rank
			if got := c.Decode(lo, ext); got != rank {
				t.Fatalf("k=%d: Decode(Encode(%d)) = %d", k, rank, got)
			}
		}
	}
}

// TestZeroRankIdles pins the energy-critical corner: rank 0 is the
// all-zero codeword, so zero data never drives a wire.
func TestZeroRankIdles(t *testing.T) {
	for _, k := range []int{2, 8, 16, 32, 64} {
		c, err := New(k)
		if err != nil {
			t.Fatalf("New(%d): %v", k, err)
		}
		if lo, ext := c.Encode(0); lo != 0 || ext {
			t.Errorf("k=%d: Encode(0) = %b/%v, want all-zero", k, lo, ext)
		}
	}
}

// TestWideSegments spot-checks the 64-bit codebook, where the rank space
// is the full uint64 range and the cumulative counts approach the uint64
// ceiling.
func TestWideSegments(t *testing.T) {
	c, err := New(64)
	if err != nil {
		t.Fatal(err)
	}
	ranks := []uint64{0, 1, 2, 63, 1 << 20, 1<<63 - 1, 1 << 63, ^uint64(0) - 1, ^uint64(0)}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		ranks = append(ranks, rng.Uint64())
	}
	for _, rank := range ranks {
		lo, ext := c.Encode(rank)
		weight := bits.OnesCount64(lo)
		if ext {
			weight++
		}
		if weight > 32 {
			t.Fatalf("rank %d: weight %d > 32", rank, weight)
		}
		if got := c.Decode(lo, ext); got != rank {
			t.Fatalf("Decode(Encode(%d)) = %d", rank, got)
		}
	}
}

func TestNewRejectsBadWidths(t *testing.T) {
	for _, k := range []int{-2, 0, 1, 3, 7, 65, 66, 128} {
		if _, err := New(k); err == nil {
			t.Errorf("New(%d): want error", k)
		}
	}
}

func TestValidateSegment(t *testing.T) {
	if err := ValidateSegment("fpf", 64, 8); err != nil {
		t.Errorf("64 wires / 8-bit segments: %v", err)
	}
	for _, tc := range []struct{ wires, seg int }{
		{64, 7},  // odd width
		{64, 0},  // zero width
		{64, 66}, // past MaxDataBits
		{60, 8},  // wires not a multiple
		{0, 8},   // no wires
	} {
		if err := ValidateSegment("fpf", tc.wires, tc.seg); err == nil {
			t.Errorf("ValidateSegment(%d, %d): want error", tc.wires, tc.seg)
		}
	}
}

// TestTablesMatchWalk checks every tabulated width exhaustively: the
// lookup tables and the package's own walk both agree with the frozen
// full-length walk on every rank and every codeword.
func TestTablesMatchWalk(t *testing.T) {
	for k := 2; k <= tableBits; k += 2 {
		c := build(k)
		if c.enc == nil || c.dec == nil {
			t.Fatalf("k=%d: no tables at or below tableBits", k)
		}
		s := reference.Cumulative(k)
		for rank := uint64(0); rank < 1<<uint(k); rank++ {
			wantLo, wantExt := reference.Encode(s, k, rank)
			if lo, ext := c.Encode(rank); lo != wantLo || ext != wantExt {
				t.Fatalf("k=%d rank=%d: table %b/%v, reference walk %b/%v", k, rank, lo, ext, wantLo, wantExt)
			}
			if lo, ext := c.walkEncode(rank); lo != wantLo || ext != wantExt {
				t.Fatalf("k=%d rank=%d: walk %b/%v, reference walk %b/%v", k, rank, lo, ext, wantLo, wantExt)
			}
			if got := c.Decode(wantLo, wantExt); got != rank {
				t.Fatalf("k=%d: table Decode(%b/%v) = %d, want %d", k, wantLo, wantExt, got, rank)
			}
			if got := c.walkDecode(wantLo, wantExt); got != rank {
				t.Fatalf("k=%d: walk Decode(%b/%v) = %d, want %d", k, wantLo, wantExt, got, rank)
			}
			if got := reference.Decode(s, k, wantLo, wantExt); got != rank {
				t.Fatalf("k=%d: reference Decode(%b/%v) = %d, want %d", k, wantLo, wantExt, got, rank)
			}
		}
	}
	if c := build(tableBits + 2); c.enc != nil || c.dec != nil {
		t.Errorf("k=%d: tables built above tableBits", tableBits+2)
	}
}

// TestGroupRowsMatchWalk checks every byte-group row of every wide width
// against the frozen walk over the group's positions: a row counts the
// walk's ranks, and at both ends of every pattern's ranks and at the
// first ranks of every guess bucket its pattern and remaining rank are
// the walk's.
func TestGroupRowsMatchWalk(t *testing.T) {
	for k := tableBits + 2; k <= MaxDataBits; k += 2 {
		c := build(k)
		s := reference.Cumulative(k)
		for idx := range c.rows {
			r := &c.rows[idx]
			if r.prefix == nil {
				continue // a budget no rank brings to this group
			}
			g, b := idx/(c.w+1), idx%(c.w+1)
			base := g * groupBits
			m := min(groupBits, k-base)
			total := r.prefix[len(r.pat)]
			if total != s[base+m][b] {
				t.Fatalf("k=%d group %d budget %d: %d ranks, walk %d", k, g, b, total, s[base+m][b])
			}
			var ranks []uint64
			for i := range r.pat {
				ranks = append(ranks, r.prefix[i], r.prefix[i+1]-1)
			}
			for q := range r.guess {
				first, _ := bits.Div64(uint64(q), 0, r.mul)
				ranks = append(ranks, first, first+1)
			}
			for _, rank := range ranks {
				if rank >= total {
					continue
				}
				// The walk over positions base+m-1 down to base.
				var pat uint8
				rest, budget := rank, b
				for p := base + m - 1; p >= base && budget > 0; p-- {
					if below := s[p][budget]; rest >= below {
						rest -= below
						budget--
						pat |= 1 << uint(p-base)
					}
				}
				if i := r.find(rank); r.pat[i] != pat || rank-r.prefix[i] != rest {
					t.Fatalf("k=%d group %d budget %d rank %d: row %08b rest %d, walk %08b rest %d",
						k, g, b, rank, r.pat[i], rank-r.prefix[i], pat, rest)
				}
			}
		}
	}
}

// TestLowRanksEncodeToThemselves pins the identity the early exits rely
// on: every rank below 2^(k/2) is its own codeword, spare wire idle,
// because every shorter vector already fits the weight budget.
func TestLowRanksEncodeToThemselves(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for k := 2; k <= MaxDataBits; k += 2 {
		c, err := New(k)
		if err != nil {
			t.Fatal(err)
		}
		s := reference.Cumulative(k)
		half := uint64(1) << uint(k/2)
		ranks := []uint64{0, 1, half / 2, half - 1}
		for i := 0; i < 256; i++ {
			ranks = append(ranks, rng.Uint64()%half)
		}
		for _, rank := range ranks {
			if lo, ext := reference.Encode(s, k, rank); lo != rank || ext {
				t.Fatalf("k=%d rank=%d: reference codeword %b/%v, want the rank itself", k, rank, lo, ext)
			}
			if lo, ext := c.Encode(rank); lo != rank || ext {
				t.Fatalf("k=%d rank=%d: codeword %b/%v, want the rank itself", k, rank, lo, ext)
			}
		}
		// The first rank past the identity range is not its own codeword
		// unless it still fits the budget (it has weight 1, so it does
		// for every k >= 4): the property is about the range, not a cap.
		if lo, ext := reference.Encode(s, k, half); k >= 4 && (lo != half || ext) {
			t.Errorf("k=%d: rank 2^(k/2) codeword %b/%v", k, lo, ext)
		}
	}
}

// TestWideWalkMatchesReference holds the early-exit walks of every
// untabulated width to the frozen full-length walk of package reference on random ranks,
// spread over the whole rank range and its ends.
func TestWideWalkMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for k := tableBits + 2; k <= MaxDataBits; k += 2 {
		c, err := New(k)
		if err != nil {
			t.Fatal(err)
		}
		s := reference.Cumulative(k)
		max := ^uint64(0)
		if k < 64 {
			max = 1<<uint(k) - 1
		}
		ranks := []uint64{0, 1, max, max - 1, c.extFrom - 1, c.extFrom}
		for i := 0; i < 4000; i++ {
			r := rng.Uint64()
			if i%2 == 1 {
				r >>= uint(rng.Intn(64)) // small and mid ranks too
			}
			ranks = append(ranks, r&max)
		}
		for _, rank := range ranks {
			wantLo, wantExt := reference.Encode(s, k, rank)
			lo, ext := c.Encode(rank)
			if lo != wantLo || ext != wantExt {
				t.Fatalf("k=%d rank=%d: walk %b/%v, reference %b/%v", k, rank, lo, ext, wantLo, wantExt)
			}
			if got := c.Decode(lo, ext); got != rank {
				t.Fatalf("k=%d: Decode(Encode(%d)) = %d", k, rank, got)
			}
		}
	}
}

// TestNewShared: the codebook is a pure function of k, so every New of
// one width returns the same immutable Code, also when first built
// concurrently (run under -race).
func TestNewShared(t *testing.T) {
	widths := []int{2, 8, 16, 18, 64}
	got := make([][]*Code, 8)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for _, k := range widths {
				c, err := New(k)
				if err != nil {
					t.Error(err)
					return
				}
				got[g] = append(got[g], c)
				rank := uint64(g+3) & (1<<uint(k) - 1)
				lo, ext := c.Encode(rank)
				if c.Decode(lo, ext) != rank {
					t.Errorf("k=%d: concurrent round trip failed", k)
				}
			}
		}(g)
	}
	wg.Wait()
	for g := range got {
		for i := range widths {
			if got[g][i] != got[0][i] {
				t.Errorf("k=%d: goroutines %d and 0 got different codebooks", widths[i], g)
			}
		}
	}
}

// TestFieldOrField round-trips random fields of every width at every
// bit offset, including fields that straddle a word boundary.
func TestFieldOrField(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for k := 1; k <= 64; k++ {
		for off := 0; off+k <= 192; off++ {
			v := rng.Uint64()
			if k < 64 {
				v &= 1<<uint(k) - 1
			}
			words := make([]uint64, 3)
			OrField(words, off, k, v)
			if got := Field(words, off, k); got != v {
				t.Fatalf("k=%d off=%d: Field %x after OrField %x", k, off, got, v)
			}
			// Nothing outside the field was touched.
			for bit := 0; bit < 192; bit++ {
				if (bit < off || bit >= off+k) && words[bit>>6]&(1<<uint(bit&63)) != 0 {
					t.Fatalf("k=%d off=%d: OrField set bit %d outside the field", k, off, bit)
				}
			}
			// Field ignores neighbouring bits.
			for i := range words {
				words[i] = ^uint64(0)
			}
			if got, want := Field(words, off, k), ^uint64(0)>>uint(64-k); got != want {
				t.Fatalf("k=%d off=%d: Field of all ones = %x, want %x", k, off, got, want)
			}
		}
	}
}

// FuzzEncodeVsReference holds Encode at every width to the frozen
// full-length walk on arbitrary ranks, and checks that Decode inverts
// it. width selects an even k in [2,64]; rank is cut to k bits. The
// corpus holds one seed per width class: byte-table, segment-table,
// byte-group with a partial top group, and the full 64-bit rank range.
func FuzzEncodeVsReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, width uint8, rank uint64) {
		k := 2 + 2*int(width%32)
		if k < 64 {
			rank &= 1<<uint(k) - 1
		}
		c, err := New(k)
		if err != nil {
			t.Fatal(err)
		}
		wantLo, wantExt := reference.Encode(reference.Cumulative(k), k, rank)
		lo, ext := c.Encode(rank)
		if lo != wantLo || ext != wantExt {
			t.Fatalf("k=%d rank=%d: Encode %b/%v, reference %b/%v", k, rank, lo, ext, wantLo, wantExt)
		}
		if got := c.Decode(lo, ext); got != rank {
			t.Fatalf("k=%d: Decode(Encode(%d)) = %d", k, rank, got)
		}
	})
}

var encodeSink uint64

// BenchmarkEncodeRun prices one word of segments (64/k of them) at each
// width of the segment sweep, on the words of generator blocks: the byte
// table (4, 8), the segment table (16) and the byte-group rows (32, 64).
func BenchmarkEncodeRun(b *testing.B) {
	gen := workload.NewGenerator(workload.Parallel()[0], 1)
	var words []uint64
	for i := 0; len(words) < 512; i++ {
		block := gen.BlockData(uint64(i) * 4096)
		for j := 0; j+8 <= len(block); j += 8 {
			words = append(words, binary.LittleEndian.Uint64(block[j:]))
		}
	}
	for _, k := range []int{4, 8, 16, 32, 64} {
		c, err := New(k)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				lo, spare := c.encodeRun(words[i%len(words)], 64/k)
				encodeSink += lo ^ spare
			}
		})
	}
}
