package cachesim

// bankSched tracks one L2 bank's busy intervals so that a request arriving
// before an already-reserved future interval (e.g. a DRAM fill scheduled
// hundreds of cycles ahead) can still use the idle bank now. Intervals are
// kept sorted by start time; intervals far in the past are pruned.
//
// The live intervals are iv[head:]. They are disjoint and every one is at
// least a cycle long, so sorted by start they are sorted by end too: the
// first interval that can delay a request is found by binary search, and
// pruning advances head instead of moving the list.
type bankSched struct {
	iv   []busyInterval
	head int
}

type busyInterval struct {
	start, end uint64 // [start, end)
}

// pruneSlack keeps recently expired intervals around to tolerate slightly
// out-of-order arrival times across cores.
const pruneSlack = 4096

// reserve books the earliest interval of length dur starting at or after
// earliest, and returns its start time.
//
//desclint:hotpath
func (b *bankSched) reserve(earliest, dur uint64) uint64 {
	if dur == 0 {
		dur = 1
	}
	// Prune intervals that ended long before `earliest`, compacting once
	// the pruned prefix is the larger half of the list.
	if earliest > pruneSlack {
		cut := earliest - pruneSlack
		for b.head < len(b.iv) && b.iv[b.head].end < cut {
			b.head++
		}
		if 2*b.head > len(b.iv) {
			b.iv = b.iv[:copy(b.iv, b.iv[b.head:])]
			b.head = 0
		}
	}
	// Intervals ending at or before earliest cannot delay the request;
	// the first that ends after it is where the gap walk starts.
	lo, hi := b.head, len(b.iv)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if b.iv[mid].end > earliest {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	start := earliest
	pos := lo
	for ; pos < len(b.iv); pos++ {
		cur := b.iv[pos]
		if start+dur <= cur.start {
			break // fits in the gap before cur
		}
		if cur.end > start {
			start = cur.end
		}
	}
	b.iv = append(b.iv, busyInterval{})
	copy(b.iv[pos+1:], b.iv[pos:])
	b.iv[pos] = busyInterval{start: start, end: start + dur}
	return start
}
