package workload

import (
	"fmt"
	"runtime"
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

// recordCap is the longest record a table holding nothing else admits:
// the chunks that fit the budget beside the record's generator.
func recordCap() int {
	return (streamRecordBudget - streamGenBytes) / streamChunkBytes * streamChunk
}

// replay checks that s's next accesses equal want[from:to].
func replay(t *testing.T, label string, s *Stream, want []Access, from, to int) {
	t.Helper()
	for i := from; i < to; i++ {
		if got := s.Next(); got != want[i] {
			t.Fatalf("%s: access %d = %+v, private generator gives %+v", label, i, got, want[i])
		}
	}
}

// TestSharedStreamMatchesPrivate: a replayed stream equals the private
// sequence for every profile at 8 and 32 contexts, below, at and beyond
// the longest record the budget admits, on the record's live generator
// and on a fast-forwarded one, after its record is evicted, and with
// concurrent replayers.
func TestSharedStreamMatchesPrivate(t *testing.T) {
	rc := recordCap()
	beyond := rc + 3*streamChunk + 7
	for i, prof := range append(Parallel(), SPEC()...) {
		for _, nctx := range []int{8, 32} {
			g := NewGenerator(prof, int64(i))
			ctx := i % nctx
			label := fmt.Sprintf("%s/%d", prof.Name, nctx)
			want := privateAccesses(g, ctx, nctx, beyond)

			tbl := newStreamTable()
			below := tbl.stream(g, ctx, nctx)
			replay(t, label+" below", below, want, 0, 100)
			replay(t, label+" at", tbl.stream(g, ctx, nctx), want, 0, rc)
			r := tbl.recs[streamKey{g.id, ctx, nctx}]
			if r.n != rc {
				t.Fatalf("%s: record holds %d accesses, want the budget's %d", label, r.n, rc)
			}
			// The first replay past the record takes its generator,
			// the second fast-forwards a fresh one.
			replay(t, label+" beyond", tbl.stream(g, ctx, nctx), want, 0, beyond)
			if r.gen != nil {
				t.Fatalf("%s: the replay past the record left the record's generator", label)
			}
			replay(t, label+" beyond again", tbl.stream(g, ctx, nctx), want, 0, beyond)

			// Another record's growth evicts this one; the cursor
			// halfway through it continues privately, and a new
			// cursor starts a new record.
			other := tbl.stream(g, (ctx+1)%nctx, nctx)
			other.Next()
			if !r.evicted || tbl.recs[r.key] != nil {
				t.Fatalf("%s: growing another record did not evict the full one", label)
			}
			replay(t, label+" after eviction", below, want, 100, 1000)
			replay(t, label+" new record", tbl.stream(g, ctx, nctx), want, 0, 1000)

			replayConcurrently(t, label, newStreamTable(), g, ctx, nctx, want[:3000])
		}
	}
}

// TestSharedStreamConcurrentBeyondBudget: replayers racing past a full
// record hand its generator to one of them and fast-forward the others;
// every one of them still reads the private sequence.
func TestSharedStreamConcurrentBeyondBudget(t *testing.T) {
	g := NewGenerator(Parallel()[2], 3)
	want := privateAccesses(g, 5, 32, recordCap()+500)
	replayConcurrently(t, "beyond the budget", newStreamTable(), g, 5, 32, want)
}

// replayConcurrently has four goroutines replay g's (ctx, nctx) stream
// from tbl at once, extending one record together, and checks each
// against want.
func replayConcurrently(t *testing.T, label string, tbl *streamTable, g *Generator, ctx, nctx int, want []Access) {
	t.Helper()
	var wg sync.WaitGroup
	errs := make(chan string, 4) // one per replayer
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := tbl.stream(g, ctx, nctx)
			for j := range want {
				if got := s.Next(); got != want[j] {
					errs <- fmt.Sprintf("%s, concurrent: access %d = %+v, want %+v", label, j, got, want[j])
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// TestStreamRecordMemoryBounded: however many streams a process replays,
// the table counts at most streamRecordBudget bytes, the count matches the
// chunks it allocated and the generators its records hold, and
// streamGenBytes covers what a generator allocates.
func TestStreamRecordMemoryBounded(t *testing.T) {
	tbl := newStreamTable()
	check := func(when string) {
		t.Helper()
		tbl.mu.Lock()
		defer tbl.mu.Unlock()
		if tbl.bytes > streamRecordBudget {
			t.Fatalf("%s: records count %d bytes, budget %d", when, tbl.bytes, streamRecordBudget)
		}
		held := streamChunkBytes * len(tbl.free)
		for _, r := range tbl.order {
			r.mu.Lock()
			if r.gen != nil {
				held += streamGenBytes
			}
			held += streamChunkBytes * len(r.chunks)
			r.mu.Unlock()
		}
		if held != tbl.bytes || len(tbl.order) != len(tbl.recs) {
			t.Fatalf("%s: table counts %d bytes in %d records, holds %d in %d",
				when, tbl.bytes, len(tbl.recs), held, len(tbl.order))
		}
	}
	for i, prof := range Parallel() {
		g := NewGenerator(prof, 11)
		for ctx := 0; ctx < 32; ctx++ {
			s := tbl.stream(g, ctx, 32)
			for j := 0; j < 200*(i+1); j++ {
				s.Next()
			}
		}
		check(prof.Name)
	}
	s := tbl.stream(NewGenerator(SPEC()[0], 11), 0, 1)
	for j := 0; j < 2*recordCap(); j++ {
		s.Next()
	}
	check("a stream twice the budget")

	g := NewGenerator(Parallel()[0], 11)
	var before, after runtime.MemStats
	const gens = 64
	keep := make([]*streamGen, gens)
	runtime.ReadMemStats(&before)
	for i := range keep {
		keep[i] = newStreamGen(g, i, gens)
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / gens; per > streamGenBytes {
		t.Errorf("a stream generator allocates %d bytes, streamGenBytes counts %d", per, streamGenBytes)
	}
	runtime.KeepAlive(keep)
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
