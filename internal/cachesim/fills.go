package cachesim

// fillTimes maps block addresses to the completion cycle of their latest
// L2 fill (the MSHR table). It is an open-addressed, linear-probing table
// that doubles when half full, so n distinct blocks cost O(log n)
// allocations over a run; a Go map allocates on every table split, so a
// run's allocation count would grow with its length.
// Entries are never removed: fetchFromL2 overwrites a stale entry, and
// the prefetcher treats any block ever fetched as already handled.
type fillTimes struct {
	slots []fillSlot
	n     int  // occupied slots
	shift uint // 64 - log2(len(slots)): keeps the hash's top bits
}

type fillSlot struct {
	key  uint64 // block address + 1; 0 = empty slot
	done uint64
}

// fillTimesInitBits sizes the starting table (1<<fillTimesInitBits slots).
const fillTimesInitBits = 10

func newFillTimes() fillTimes {
	return fillTimes{slots: make([]fillSlot, 1<<fillTimesInitBits), shift: 64 - fillTimesInitBits}
}

// slot returns the slot holding addr, or the empty slot where it belongs
// (Fibonacci hashing, then linear probing).
func (t *fillTimes) slot(addr uint64) *fillSlot {
	mask := uint64(len(t.slots) - 1)
	i := addr * 0x9E3779B97F4A7C15 >> t.shift
	for t.slots[i].key != 0 && t.slots[i].key != addr+1 {
		i = (i + 1) & mask
	}
	return &t.slots[i]
}

// get returns addr's latest fill completion cycle, if it was ever filled.
//
//desclint:hotpath
func (t *fillTimes) get(addr uint64) (uint64, bool) {
	s := t.slot(addr)
	return s.done, s.key != 0
}

// set records addr's latest fill completion cycle.
func (t *fillTimes) set(addr, done uint64) {
	s := t.slot(addr)
	if s.key == 0 {
		if 2*(t.n+1) > len(t.slots) {
			t.grow()
			s = t.slot(addr)
		}
		s.key = addr + 1
		t.n++
	}
	s.done = done
}

// grow doubles the table and reinserts every entry.
func (t *fillTimes) grow() {
	old := t.slots
	t.slots = make([]fillSlot, 2*len(old))
	t.shift--
	for _, s := range old {
		if s.key != 0 {
			*t.slot(s.key - 1) = s
		}
	}
}
