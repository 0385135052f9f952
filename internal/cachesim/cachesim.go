// Package cachesim is the functional + timing model of the memory
// hierarchy of Table 1: per-core L1 data caches kept coherent with a
// MESI-style directory, a shared banked L2 whose data movements flow
// through a configurable transfer scheme (internal/cachemodel +
// internal/link), and DDR3 main memory (internal/dram).
//
// Timing is transaction level with bank-occupancy queueing: every L2
// access waits for its bank, occupies it for the array plus transfer
// time (data dependent under DESC), and completes after the H-tree round
// trip. Energy flows into the cache model's ledger and the DRAM model.
package cachesim

import (
	"fmt"

	"desc/internal/cachemodel"
	"desc/internal/dram"
	"desc/internal/metrics"
)

// BlockSource supplies the memory contents used for H-tree transfers.
// workload.Generator implements it.
type BlockSource interface {
	FillBlockData(addr uint64, buf []byte)
}

// Table 1's core count and private L1 data caches, and the L2's
// associativity. The L2 capacity, banking and transfer scheme are the
// swept parameters and come from Config.L2.
const (
	// cores is the number of cores, each with a private L1D.
	cores = 8
	// l1Bytes, l1Ways: per-core L1 data cache geometry (16KB 4-way).
	l1Bytes, l1Ways = 16 << 10, 4
	// l1HitCycles is the L1 access latency.
	l1HitCycles = 2
	// l2Ways is the L2 set associativity.
	l2Ways = 16
)

// Config parameterizes the hierarchy.
type Config struct {
	// L2 is the last-level cache configuration.
	L2 cachemodel.Config
	// PrefetchNextLine enables a next-line L2 prefetcher: every demand
	// L2 miss also fetches the following block into the L2 (off the
	// critical path). Prefetches add H-tree fill traffic, which
	// interacts with the transfer scheme's energy (experiment ext03).
	PrefetchNextLine bool
	// Metrics, when non-nil, receives live hierarchy telemetry
	// (hit/miss/queue counters under "cachesim/…" and per-scheme link
	// activity under "link/<scheme>/…"). Metrics are write-only: they
	// never feed back into timing or energy, so results are identical
	// with or without a registry.
	Metrics *metrics.Registry
}

// Stats accumulates hierarchy event counts.
type Stats struct {
	L1Hits, L1Misses    uint64
	L2Hits, L2Misses    uint64
	L2Writebacks        uint64
	Invalidations       uint64
	UpgradeMisses       uint64
	MSHRMerges          uint64
	L1WritebacksToL2    uint64
	PrefetchFills       uint64
	PrefetchHits        uint64
	HitLatencySumCycles uint64 // total L2 hit latency in cycles
	HitCount            uint64
	QueueDelaySumCycles uint64
}

// Hierarchy is the simulated memory system.
type Hierarchy struct {
	cfg   Config
	model *cachemodel.Model
	dram  *dram.DRAM
	src   BlockSource

	l1    []*l1Cache
	l2    *l2Cache
	banks []bankSched

	// inflight tracks outstanding fills per block so concurrent
	// requesters merge into one L2/DRAM access (MSHR behavior).
	inflight fillTimes

	// cancel, when non-nil, aborts block transfers once closed; see
	// SetCancel.
	cancel <-chan struct{}

	// mx mirrors the headline Stats fields into the configured metrics
	// registry as the simulation runs. Its instruments are nil (no-op)
	// when Config.Metrics is nil, so the hot paths increment
	// unconditionally.
	mx hierMetrics

	buf   []byte
	stats Stats
}

// hierMetrics is the hierarchy's live instrument set.
type hierMetrics struct {
	l1Hits, l1Misses  *metrics.Counter
	l2Hits, l2Misses  *metrics.Counter
	l2Writebacks      *metrics.Counter
	mshrMerges        *metrics.Counter
	invalidations     *metrics.Counter
	prefetchFills     *metrics.Counter
	prefetchHits      *metrics.Counter
	queueDelayCycles  *metrics.Counter
	transfersStarted  *metrics.Counter
	transfersCanceled *metrics.Counter
}

// newHierMetrics resolves the hierarchy's instruments (all nil when reg
// is nil).
func newHierMetrics(reg *metrics.Registry) hierMetrics {
	return hierMetrics{
		l1Hits:            reg.Counter("cachesim/l1_hits"),
		l1Misses:          reg.Counter("cachesim/l1_misses"),
		l2Hits:            reg.Counter("cachesim/l2_hits"),
		l2Misses:          reg.Counter("cachesim/l2_misses"),
		l2Writebacks:      reg.Counter("cachesim/l2_writebacks"),
		mshrMerges:        reg.Counter("cachesim/mshr_merges"),
		invalidations:     reg.Counter("cachesim/invalidations"),
		prefetchFills:     reg.Counter("cachesim/prefetch_fills"),
		prefetchHits:      reg.Counter("cachesim/prefetch_hits"),
		queueDelayCycles:  reg.Counter("cachesim/queue_delay_cycles"),
		transfersStarted:  reg.Counter("cachesim/l2_transfers"),
		transfersCanceled: reg.Counter("cachesim/l2_transfers_cancelled"),
	}
}

// New builds the hierarchy.
func New(cfg Config, src BlockSource) (*Hierarchy, error) {
	if src == nil {
		return nil, fmt.Errorf("cachesim: nil block source")
	}
	model, err := cachemodel.New(cfg.L2)
	if err != nil {
		return nil, err
	}
	model.SetMetrics(cfg.Metrics)
	h := &Hierarchy{
		cfg:      cfg,
		model:    model,
		dram:     dram.New(),
		src:      src,
		banks:    make([]bankSched, model.Banks()),
		inflight: newFillTimes(),
		mx:       newHierMetrics(cfg.Metrics),
		buf:      make([]byte, model.BlockBytes()),
	}
	h.l1 = make([]*l1Cache, cores)
	for i := range h.l1 {
		h.l1[i] = newL1(model.BlockBytes())
	}
	h.l2, err = newL2(model.Config().CapacityBytes, model.BlockBytes(), model.Banks())
	if err != nil {
		return nil, err
	}
	return h, nil
}

// Release hands the hierarchy's L2 line table to a process-wide pool,
// reset to its initial state, so a later New with the same L2 geometry
// reuses it instead of allocating and clearing a fresh one. Call it once
// the run's results have been read: afterwards Stats, Model, DRAM and
// AvgHitLatencyCycles still work, but Access and a second Release panic.
// A hierarchy that is never released is simply collected.
func (h *Hierarchy) Release() {
	if h.l2 == nil {
		panic("cachesim: Release of a released hierarchy")
	}
	l2 := h.l2
	h.l1, h.l2 = nil, nil
	l2.reset()
	l2Tables.put(l2)
}

// Model exposes the L2 energy model.
func (h *Hierarchy) Model() *cachemodel.Model { return h.model }

// DRAM exposes the memory model.
func (h *Hierarchy) DRAM() *dram.DRAM { return h.dram }

// Stats returns the accumulated event counts.
func (h *Hierarchy) Stats() Stats { return h.stats }

// SetCancel installs a cancellation signal (typically a Context's Done
// channel) consulted on the transfer hot path: once the channel is
// closed, l2Transfer stops encoding blocks and returns immediately, so a
// cancelled cpusim run unwinds without finishing the block in flight.
// Counts and timing accumulated after cancellation are meaningless; the
// driving simulator discards them and reports the context's error.
func (h *Hierarchy) SetCancel(done <-chan struct{}) { h.cancel = done }

// cancelled reports whether the installed cancellation signal has fired.
func (h *Hierarchy) cancelled() bool {
	if h.cancel == nil {
		return false
	}
	select {
	case <-h.cancel:
		return true
	default:
		return false
	}
}

// Access performs one data reference by core at cycle now and returns the
// completion cycle.
func (h *Hierarchy) Access(now uint64, core int, addr uint64, write bool) uint64 {
	if core < 0 || core >= len(h.l1) {
		if h.l2 == nil {
			panic("cachesim: Access on a released hierarchy")
		}
		panic(fmt.Sprintf("cachesim: core %d of %d", core, len(h.l1)))
	}
	addr &^= uint64(h.model.BlockBytes() - 1)
	l1 := h.l1[core]

	row, l := l1.probe(addr)
	if l != nil {
		if !write || l.dirty {
			promote(row, l)
			h.stats.L1Hits++
			h.mx.l1Hits.Inc()
			return now + l1HitCycles
		}
		// Write to a Shared line: upgrade — invalidate peers via the
		// L2 directory (tag probe latency, no data transfer) and
		// record the new dirty owner.
		h.stats.L1Hits++
		h.stats.UpgradeMisses++
		h.mx.l1Hits.Inc()
		loc := h.l2.locate(addr)
		_, l2l := h.l2.find(loc.set, loc.tag)
		h.invalidatePeers(addr, l2l, core)
		recordL1(l2l, core, true)
		promote(row, l)
		l.dirty = true
		return now + uint64(l1HitCycles+h.model.TagProbeCycles(loc.bank))
	}
	h.stats.L1Misses++
	h.mx.l1Misses.Inc()

	// Allocate in L1; write back the victim if dirty.
	victim, dirty := l1.fill(row, addr, write)
	if dirty {
		h.writebackToL2(now, victim)
	}

	done := h.fetchFromL2(now, core, addr, write)
	return done + l1HitCycles
}

// fetchFromL2 brings the block to the requesting core's L1. It probes the
// L2 once and carries the line through the coherence actions and the hit
// or fill: only allocate changes which block a line holds.
func (h *Hierarchy) fetchFromL2(now uint64, core int, addr uint64, write bool) uint64 {
	loc := h.l2.locate(addr)
	row, l := h.l2.find(loc.set, loc.tag)

	// MSHR merge: a request for a block already in flight piggybacks on
	// the outstanding access instead of issuing another one.
	if done, ok := h.inflight.get(addr); ok && done > now {
		h.stats.MSHRMerges++
		h.mx.mshrMerges.Inc()
		recordL1(l, core, write)
		if write {
			h.invalidatePeers(addr, l, core)
		}
		return done
	}

	// Coherence: if a peer L1 holds the line Modified, it is written
	// back through the H-tree first (one L2 write transfer).
	if l != nil && l.owner >= 0 && int(l.owner) != core {
		h.l1[l.owner].invalidate(addr)
		h.stats.Invalidations++
		h.stats.L1WritebacksToL2++
		h.mx.invalidations.Inc()
		now = h.l2Transfer(now, loc.bank, addr, true)
	}
	if write {
		h.invalidatePeers(addr, l, core)
	}

	if l != nil {
		promote(row, l)
		if l.prefetched {
			l.prefetched = false
			h.stats.PrefetchHits++
			h.mx.prefetchHits.Inc()
		}
		h.stats.L2Hits++
		h.mx.l2Hits.Inc()
		done := h.l2Transfer(now, loc.bank, addr, false)
		h.stats.HitLatencySumCycles += done - now
		h.stats.HitCount++
		recordL1(l, core, write)
		h.inflight.set(addr, done)
		return done
	}

	// L2 miss: probe, fetch from DRAM, install (H-tree write), deliver.
	h.stats.L2Misses++
	h.mx.l2Misses.Inc()
	start := h.banks[loc.bank].reserve(now, uint64(h.model.ArrayCycles()))
	probeDone := start + uint64(h.model.TagProbeCycles(loc.bank))
	memDone := h.dram.Access(probeDone, addr, false)
	if h.cfg.PrefetchNextLine {
		h.prefetch(probeDone, addr+uint64(h.model.BlockBytes()))
	}

	l, victim, victimDirty := h.l2.allocate(loc)
	if victimDirty {
		h.stats.L2Writebacks++
		h.mx.l2Writebacks.Inc()
		// Dirty victim leaves through the H-tree to the write buffer,
		// then to DRAM (off the critical path).
		h.l2Transfer(memDone, h.l2.locate(victim).bank, victim, false)
		h.dram.Access(memDone, victim, true)
	}
	// Install the fill in the arrays through the H-tree.
	fillDone := h.l2Transfer(memDone, loc.bank, addr, true)
	recordL1(l, core, write)
	h.inflight.set(addr, fillDone)
	return fillDone
}

// prefetch brings `addr` into the L2 off the critical path: a DRAM fetch
// and an H-tree fill whose occupancy and energy are charged, but on which
// nobody waits.
func (h *Hierarchy) prefetch(now uint64, addr uint64) {
	loc := h.l2.locate(addr)
	if row, l := h.l2.find(loc.set, loc.tag); l != nil {
		promote(row, l)
		return
	}
	if _, ok := h.inflight.get(addr); ok {
		return
	}
	memDone := h.dram.Access(now, addr, false)
	l, victim, victimDirty := h.l2.allocate(loc)
	if victimDirty {
		h.stats.L2Writebacks++
		h.mx.l2Writebacks.Inc()
		h.l2Transfer(memDone, h.l2.locate(victim).bank, victim, false)
		h.dram.Access(memDone, victim, true)
	}
	fillDone := h.l2Transfer(memDone, loc.bank, addr, true)
	l.prefetched = true
	h.inflight.set(addr, fillDone)
	h.stats.PrefetchFills++
	h.mx.prefetchFills.Inc()
}

// l2Transfer moves one block between the controller and a bank and
// returns its completion time. The transfer waits for the earliest slot
// in the bank's reservation schedule at or after `earliest` and occupies
// the bank (and its link) for the array plus transfer time.
func (h *Hierarchy) l2Transfer(earliest uint64, bank int, addr uint64, isWrite bool) uint64 {
	if h.cancelled() {
		h.mx.transfersCanceled.Inc()
		return earliest
	}
	h.mx.transfersStarted.Inc()
	h.src.FillBlockData(addr, h.buf)
	res := h.model.Access(bank, h.buf, isWrite)
	occupancy := uint64(res.TransferCycles) + uint64(h.model.ArrayCycles())
	start := h.banks[bank].reserve(earliest, occupancy)
	h.stats.QueueDelaySumCycles += start - earliest
	h.mx.queueDelayCycles.Add(start - earliest)
	return start + uint64(res.Cycles)
}

// writebackToL2 sends a dirty L1 victim to its L2 bank (fire and forget
// from the core's perspective; bank occupancy still accrues).
func (h *Hierarchy) writebackToL2(now uint64, addr uint64) {
	h.stats.L1WritebacksToL2++
	loc := h.l2.locate(addr)
	h.l2Transfer(now, loc.bank, addr, true)
	if _, l := h.l2.find(loc.set, loc.tag); l != nil {
		l.dirty = true
		l.owner = -1
	}
}

// invalidatePeers removes all other L1 copies of addr and drops them from
// l, addr's L2 line (nil when the L2 does not hold it).
func (h *Hierarchy) invalidatePeers(addr uint64, l *line, except int) {
	for c, l1 := range h.l1 {
		if c == except {
			continue
		}
		if l1.invalidate(addr) {
			h.stats.Invalidations++
			h.mx.invalidations.Inc()
		}
	}
	clearSharers(l, except)
}

// AvgHitLatencyCycles returns the average L2 hit latency in cycles (Figure 21).
func (h *Hierarchy) AvgHitLatencyCycles() float64 {
	if h.stats.HitCount == 0 {
		return 0
	}
	return float64(h.stats.HitLatencySumCycles) / float64(h.stats.HitCount)
}
