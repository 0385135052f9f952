// Package dram models the main memory of Table 1: two DDR3-1066 channels
// with FR-FCFS scheduling approximated by row-buffer state per bank and
// first-ready service, providing miss latency and energy to the cache
// hierarchy.
package dram

// Table 1's memory system, clocked against the 3.2GHz core.
const (
	channels        = 2
	banksPerChannel = 8
)

// The timing and energy parameters are variables rather than constants
// on purpose: Go folds constant expressions exactly, so as constants
// rowHitNJ*1e-9 would come out one ulp away from the run-time float
// product every published result was computed with.
var (
	coreClockGHz = 3.2
	// Access latencies for row-buffer hits and misses (activate +
	// precharge).
	rowHitNs, rowMissNs = 26.0, 52.0
	// burstNs is the data burst occupancy of the channel for one 64B
	// block (eight beats at 1066 MT/s on a 64-bit channel).
	burstNs = 7.5
	// Per-access energies.
	rowHitNJ, rowMissNJ = 14.0, 24.0
	// backgroundWPerChannel is standby power per channel.
	backgroundWPerChannel = 0.35
)

// DRAM is the memory model. It is not safe for concurrent use; the
// simulator serializes accesses in time order.
type DRAM struct {
	nextFree [channels]uint64                  // per channel, in core cycles
	openRow  [channels][banksPerChannel]uint64 // +1 so 0 means "closed"

	accesses, rowHits uint64
	energyJ           float64
}

// New builds the memory model.
func New() *DRAM { return &DRAM{} }

func cycles(ns float64) uint64 {
	return uint64(ns*coreClockGHz + 0.5)
}

// Access services a 64B block request issued at core cycle `now` and
// returns the completion cycle. Channel striping is by block, bank by row
// region; FR-FCFS is approximated by letting row hits bypass the queue
// penalty of a closed-row access.
func (d *DRAM) Access(now uint64, addr uint64, write bool) uint64 {
	ch := (addr >> 6) % channels
	bank := (addr >> 13) % banksPerChannel
	row := (addr >> 16) + 1

	start := now
	if d.nextFree[ch] > start {
		start = d.nextFree[ch]
	}
	var lat uint64
	hit := d.openRow[ch][bank] == row
	if hit {
		lat = cycles(rowHitNs)
		d.energyJ += rowHitNJ * 1e-9
		d.rowHits++
	} else {
		lat = cycles(rowMissNs)
		d.energyJ += rowMissNJ * 1e-9
		d.openRow[ch][bank] = row
	}
	d.accesses++
	d.nextFree[ch] = start + cycles(burstNs)
	if write {
		// Writes complete at the controller once queued; the caller
		// does not wait for the array write.
		return start + cycles(burstNs)
	}
	return start + lat
}

// Stats returns access counts and accumulated access energy.
func (d *DRAM) Stats() (accesses, rowHits uint64, energyJ float64) {
	return d.accesses, d.rowHits, d.energyJ
}

// BackgroundW returns total standby power.
func (d *DRAM) BackgroundW() float64 {
	return backgroundWPerChannel * float64(channels)
}
