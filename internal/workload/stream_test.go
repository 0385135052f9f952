package workload

import (
	"fmt"
	"sync"
	"testing"
)

// privateAccesses generates the first n accesses of g's stream for (ctx,
// nctx) directly, without any record.
func privateAccesses(g *Generator, ctx, nctx, n int) []Access {
	s := newStreamGen(g, ctx, nctx)
	out := make([]Access, n)
	for i := range out {
		out[i] = s.next()
	}
	return out
}

// replay checks that s's next accesses equal want.
func replay(t *testing.T, label string, s *Stream, want []Access) {
	t.Helper()
	for i, w := range want {
		if got := s.Next(); got != w {
			t.Fatalf("%s: access %d = %+v, private generator gives %+v", label, i, got, w)
		}
	}
}

// frozenProfile widens prof's working set so that about one in sixteen of
// ctx's random private addresses lies past the pack limit (2^51): its
// stream recorded in a SharedStreams freezes within a few hundred
// accesses, at the first one that does not pack.
func frozenProfile(prof Profile, ctx, nctx int) Profile {
	room := float64(uint64(1)<<51 - uint64(ctx+1)<<40)
	prof.WorkingSetBytes = int(room * 17 / 16 * float64(nctx) * 4 / 3)
	prof.SharedFrac = 0
	return prof
}

// firstUnpackable returns the index of the first access in want that does
// not pack, or len(want).
func firstUnpackable(want []Access) int {
	for i, a := range want {
		if _, ok := packAccess(a); !ok {
			return i
		}
	}
	return len(want)
}

// TestSharedStreamMatchesPrivate: cursors of one SharedStreams replay
// exactly what a private generator yields, for every profile at 8 and 32
// contexts: four concurrent cursors on each of two contexts' records,
// across many chunk boundaries; a cursor made after the others finished;
// and the same past a record that froze at an access that does not pack
// (run it under -race).
func TestSharedStreamMatchesPrivate(t *testing.T) {
	const n = 3000
	for i, prof := range append(Parallel(), SPEC()...) {
		for _, nctx := range []int{8, 32} {
			ctx := i % nctx
			label := fmt.Sprintf("%s/%d", prof.Name, nctx)
			g := NewGenerator(prof, int64(i))
			sh := NewSharedStreams(g)
			want := privateAccesses(g, ctx, nctx, n)
			other := (ctx + 1) % nctx
			replayConcurrently(t, label, sh, nctx, ctxWant{ctx, want}, ctxWant{other, privateAccesses(g, other, nctx, n)})
			replay(t, label+" late cursor", sh.Stream(ctx, nctx), want)
			if r := sh.recs[[2]int{ctx, nctx}]; r.frozen || len(r.acc) < n || len(r.acc) > n+streamChunk {
				t.Fatalf("%s: record holds %d accesses (frozen %v) after replays of %d", label, len(r.acc), r.frozen, n)
			}

			fg := NewGenerator(frozenProfile(prof, ctx, nctx), int64(i))
			sh = NewSharedStreams(fg)
			want = privateAccesses(fg, ctx, nctx, n)
			at := firstUnpackable(want)
			if at >= n-500 {
				t.Fatalf("%s: the widened profile's stream packs for %d accesses, want a freeze before %d", label, at, n-500)
			}
			replayConcurrently(t, label+" frozen", sh, nctx, ctxWant{ctx, want})
			replay(t, label+" frozen, late cursor", sh.Stream(ctx, nctx), want)
			if r := sh.recs[[2]int{ctx, nctx}]; !r.frozen || len(r.acc) != at || r.gen != nil {
				t.Fatalf("%s: record holds %d accesses (frozen %v, generator kept %v), want frozen at %d",
					label, len(r.acc), r.frozen, r.gen != nil, at)
			}
		}
	}
}

// ctxWant is the private sequence of one context.
type ctxWant struct {
	ctx  int
	want []Access
}

// replayConcurrently has four goroutines per context replay sh's stream of
// that context of nctx at once, extending its record together, and checks
// each replay against the context's private sequence.
func replayConcurrently(t *testing.T, label string, sh *SharedStreams, nctx int, ctxs ...ctxWant) {
	t.Helper()
	var wg sync.WaitGroup
	errs := make(chan string, 4*len(ctxs)) // one per replayer
	for _, c := range ctxs {
		for range 4 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				s := sh.Stream(c.ctx, nctx)
				for j, w := range c.want {
					if got := s.Next(); got != w {
						errs <- fmt.Sprintf("%s, concurrent, context %d: access %d = %+v, want %+v", label, c.ctx, j, got, w)
						return
					}
				}
			}()
		}
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// TestPackAccess: an access packs into one word and back exactly, and
// one that does not fit is refused.
func TestPackAccess(t *testing.T) {
	for _, a := range []Access{
		{},
		{Addr: 64, Write: true, Gap: 1},
		{Addr: sharedBase + 1<<30, Gap: 1<<packGapBits - 1},
		{Addr: (1<<packBlockBits - 1) << 6, Write: true},
	} {
		x, ok := packAccess(a)
		if !ok || unpackAccess(x) != a {
			t.Errorf("%+v: packed %#x (ok %v), unpacks to %+v", a, x, ok, unpackAccess(x))
		}
	}
	for _, a := range []Access{
		{Addr: 65},
		{Addr: 1 << (packBlockBits + 6)},
		{Gap: 1 << packGapBits},
		{Gap: -1},
	} {
		if _, ok := packAccess(a); ok {
			t.Errorf("%+v packed, want refused", a)
		}
	}
}
