package cachesim

import (
	"math/rand"
	"slices"
	"testing"
)

// refBankSched is the bank schedule as first written: a linear scan from
// the oldest interval, and pruning that moves the list down. It is the
// oracle for bankSched's binary search and head offset.
type refBankSched struct {
	iv []busyInterval
}

func (b *refBankSched) reserve(earliest, dur uint64) uint64 {
	if dur == 0 {
		dur = 1
	}
	if len(b.iv) > 0 && earliest > pruneSlack {
		cut := earliest - pruneSlack
		i := 0
		for i < len(b.iv) && b.iv[i].end < cut {
			i++
		}
		if i > 0 {
			b.iv = b.iv[:copy(b.iv, b.iv[i:])]
		}
	}
	start := earliest
	pos := 0
	for pos < len(b.iv) {
		cur := b.iv[pos]
		if start+dur <= cur.start {
			break
		}
		if cur.end > start {
			start = cur.end
		}
		pos++
	}
	b.iv = append(b.iv, busyInterval{})
	copy(b.iv[pos+1:], b.iv[pos:])
	b.iv[pos] = busyInterval{start: start, end: start + dur}
	return start
}

// checkBankSched replays a request stream decoded from data through both
// schedules. Each request takes three bytes: how far the arrival clock
// advances, how far behind the clock the request arrives (up to about
// two and a half times pruneSlack, so stragglers land on both sides of
// the prune horizon), and the duration (0 included).
func checkBankSched(t *testing.T, data []byte) {
	var got bankSched
	var want refBankSched
	clock := uint64(0)
	for i := 0; i+3 <= len(data); i += 3 {
		clock += uint64(data[i]) * 8
		earliest := clock - min(clock, uint64(data[i+1])*40)
		dur := uint64(data[i+2])
		if dur >= 0xf0 {
			dur = (dur - 0xf0) * 400 // an occasional long DRAM-fill-like hold
		}
		g, w := got.reserve(earliest, dur), want.reserve(earliest, dur)
		if g != w {
			t.Fatalf("request %d reserve(%d, %d) = %d, reference %d", i/3, earliest, dur, g, w)
		}
		if live := got.iv[got.head:]; !slices.Equal(live, want.iv) {
			t.Fatalf("request %d: live intervals %v, reference %v", i/3, live, want.iv)
		}
		if 2*got.head > len(got.iv) {
			t.Fatalf("request %d: %d pruned of %d intervals kept", i/3, got.head, len(got.iv))
		}
	}
}

func FuzzBankSchedVsReference(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 10, 1, 0, 10})
	// A burst far ahead of the clock, then stragglers behind the prune
	// horizon.
	f.Add([]byte{10, 0, 20, 255, 0, 0xf5, 255, 0, 1, 0, 255, 30, 0, 120, 30, 0, 90, 0})
	rng := rand.New(rand.NewSource(1))
	for s := 0; s < 4; s++ {
		data := make([]byte, 3*2000)
		rng.Read(data)
		f.Add(data)
	}
	f.Fuzz(checkBankSched)
}
