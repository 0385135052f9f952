// Package cpusim executes workload streams on the two processor models of
// Table 1: a Niagara-like multicore of in-order cores with four hardware
// contexts each (fine-grained multithreading hides memory latency with
// ready contexts), and a 4-issue out-of-order core whose reorder buffer
// hides a bounded window of each access's latency (the latency-sensitive
// configuration of Section 5.8).
//
// The model is fluid between memory events: ready contexts on a core share
// its issue bandwidth equally, and each core advances to its next context
// event (gap exhausted or miss returned) rather than cycle by cycle. Cores
// interleave on a global clock — the scheduler always steps the core with
// the smallest local time — so bank contention, DRAM queueing, and
// coherence at the shared L2 occur in global time order. Memory references
// go through internal/cachesim, whose data-dependent DESC transfer times
// feed back into timing.
package cpusim

import (
	"context"
	"fmt"

	"desc/internal/cachesim"
	"desc/internal/metrics"
	"desc/internal/workload"
)

// CoreKind selects the processor model.
type CoreKind int

const (
	// InOrderMT is the Niagara-like multicore: in-order issue, one
	// instruction per cycle per core, multiple hardware contexts.
	InOrderMT CoreKind = iota
	// OutOfOrder is the 4-issue, 128-entry-ROB core of the
	// latency-tolerance study.
	OutOfOrder
)

// Config parameterizes a simulation.
type Config struct {
	// Kind is the core model.
	Kind CoreKind
	// Cores is the core count (8 for InOrderMT, 1 for OutOfOrder).
	Cores int
	// ContextsPerCore is the hardware thread count per core (4 / 1).
	ContextsPerCore int
	// IssueWidth is instructions per cycle per core (1 / 4).
	IssueWidth int
	// OverlapCycles is how much of a memory access the OutOfOrder
	// window hides (roughly ROB size / issue width).
	OverlapCycles int
	// InstrPerContext is each context's instruction budget.
	InstrPerContext uint64
	// Seed records the run's workload seed for callers. The scheduler
	// never reads it: every access comes from the StreamSource, whose
	// generator or trace already fixes the seed.
	Seed int64
	// Metrics, when non-nil, receives live scheduler telemetry
	// (scheduling-quanta and cancellation-poll counters under
	// "cpusim/…"). Write-only observation: results are identical with
	// or without a registry.
	Metrics *metrics.Registry
}

// WithDefaults fills zero fields for the given kind.
func (c Config) WithDefaults() Config {
	if c.Cores == 0 {
		if c.Kind == OutOfOrder {
			c.Cores = 1
		} else {
			c.Cores = 8
		}
	}
	if c.ContextsPerCore == 0 {
		if c.Kind == OutOfOrder {
			c.ContextsPerCore = 1
		} else {
			c.ContextsPerCore = 4
		}
	}
	if c.IssueWidth == 0 {
		if c.Kind == OutOfOrder {
			c.IssueWidth = 4
		} else {
			c.IssueWidth = 1
		}
	}
	if c.OverlapCycles == 0 {
		c.OverlapCycles = 32
	}
	if c.InstrPerContext == 0 {
		c.InstrPerContext = 200_000
	}
	return c
}

// Result summarizes a run.
type Result struct {
	// Cycles is the execution time: the last context's finish cycle.
	Cycles uint64
	// Instructions is the total committed instruction count.
	Instructions uint64
	// MemRefs is the total data reference count (L1 accesses).
	MemRefs uint64
	// Hierarchy carries the cache event counts.
	Hierarchy cachesim.Stats
	// AvgHitLatencyCycles is the mean L2 hit latency in cycles (Figure 21).
	AvgHitLatencyCycles float64
}

// AccessSource yields one hardware context's memory references. The
// workload generator's streams implement it; so do trace replayers
// (internal/trace).
type AccessSource interface {
	Next() workload.Access
}

// StreamSource provides the per-context access sources of a run.
type StreamSource interface {
	Stream(ctx, nctx int) AccessSource
}

// Streams adapts a workload generator to StreamSource: context ctx of
// nctx reads the generator's stream for that context.
func Streams(gen *workload.Generator) StreamSource { return generatorSource{gen} }

type generatorSource struct {
	g *workload.Generator
}

func (s generatorSource) Stream(ctx, nctx int) AccessSource { return s.g.Stream(ctx, nctx) }

// hwContext is one hardware thread's execution state.
type hwContext struct {
	stream    AccessSource
	instrLeft uint64
	gapLeft   int64
	pending   workload.Access
	blocked   uint64 // cycle at which the context unblocks
}

// coreState is one core's scheduling state.
type coreState struct {
	id   int
	now  uint64
	ctxs []hwContext
	done bool
	// ready is stepCore's scratch list of the contexts ready this
	// quantum, sized to hold every context so appends never grow it.
	ready []*hwContext
}

// coreHeap orders cores by local time so the globally earliest core steps
// next. Its methods are container/heap's sift algorithm on a typed slice,
// so cores with equal local times step in the same order they would under
// container/heap.
type coreHeap []*coreState

// init establishes the heap order (heap.Init).
//
//desclint:hotpath
func (h coreHeap) init() {
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.down(i, len(h))
	}
}

// fix restores the heap order after the root's time advanced
// (heap.Fix(h, 0): a root can only move down).
//
//desclint:hotpath
func (h coreHeap) fix() { h.down(0, len(h)) }

// pop removes the root (heap.Pop).
//
//desclint:hotpath
func (h *coreHeap) pop() {
	old := *h
	n := len(old) - 1
	old[0], old[n] = old[n], old[0]
	old.down(0, n)
	old[n] = nil
	*h = old[:n]
}

// down sifts element i of h[:n] towards the leaves.
//
//desclint:hotpath
func (h coreHeap) down(i, n int) {
	for {
		j := 2*i + 1
		if j >= n {
			return
		}
		if r := j + 1; r < n && h[r].now < h[j].now {
			j = r
		}
		if h[j].now >= h[i].now {
			return
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}

// ctxCheckMask throttles cancellation polling: the scheduler consults
// ctx.Done() once every 64 scheduling quanta, so cancellation latency is
// bounded by a few thousand simulated cycles while the common path stays
// select-free.
const ctxCheckMask = 0x3f

// RunWith executes the streams of src — a live generator (Streams) or a
// recorded trace — on the configured processor over the given hierarchy
// and returns timing results. Deterministic for a fixed (config, source)
// pair. Cancelling ctx stops the simulation between scheduling quanta and
// returns ctx's error; a cancelled run's partial counts are meaningless
// and must be discarded.
func RunWith(ctx context.Context, cfg Config, h *cachesim.Hierarchy, src StreamSource) (Result, error) {
	if cfg.Kind != InOrderMT && cfg.Kind != OutOfOrder {
		return Result{}, fmt.Errorf("cpusim: unknown core kind %d", cfg.Kind)
	}
	cfg = cfg.WithDefaults()
	if cfg.Cores <= 0 || cfg.ContextsPerCore <= 0 || cfg.IssueWidth <= 0 {
		return Result{}, fmt.Errorf("cpusim: invalid config %+v", cfg)
	}
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	// The hierarchy inherits the run's cancellation signal so block
	// transfers already in flight stop simulating too.
	h.SetCancel(ctx.Done())
	quantaCtr := cfg.Metrics.Counter("cpusim/quanta")
	pollCtr := cfg.Metrics.Counter("cpusim/cancel_polls")
	cfg.Metrics.Counter("cpusim/runs").Inc()
	nctx := cfg.Cores * cfg.ContextsPerCore
	var res Result

	states := make([]coreState, cfg.Cores)
	cores := make(coreHeap, cfg.Cores)
	for coreID := range states {
		cs := &states[coreID]
		*cs = coreState{
			id:    coreID,
			ctxs:  make([]hwContext, cfg.ContextsPerCore),
			ready: make([]*hwContext, 0, cfg.ContextsPerCore),
		}
		for i := range cs.ctxs {
			c := &cs.ctxs[i]
			c.stream = src.Stream(coreID*cfg.ContextsPerCore+i, nctx)
			c.instrLeft = cfg.InstrPerContext
			c.pending = c.stream.Next()
			c.gapLeft = int64(c.pending.Gap)
		}
		cores[coreID] = cs
	}
	cores.init()

	var finish uint64
	steps, published := uint64(0), uint64(0)
	for ; len(cores) > 0; steps++ {
		if steps&ctxCheckMask == 0 {
			pollCtr.Inc()
			// Publish quanta progress at poll granularity so a long run
			// is observable without a per-step atomic.
			quantaCtr.Add(steps - published)
			published = steps
			select {
			case <-ctx.Done():
				return Result{}, ctx.Err()
			default:
			}
		}
		cs := cores[0]
		stepCore(cfg, cs, h, &res)
		if cs.done {
			if cs.now > finish {
				finish = cs.now
			}
			cores.pop()
		} else {
			cores.fix()
		}
	}
	quantaCtr.Add(steps - published) // final partial poll window
	res.Cycles = finish
	res.Hierarchy = h.Stats()
	res.AvgHitLatencyCycles = h.AvgHitLatencyCycles()
	return res, nil
}

// stepCore advances one core by a single scheduling quantum: a fluid
// execution advance to the next context event, followed by issuing any
// memory operations that became due.
//
//desclint:hotpath
func stepCore(cfg Config, cs *coreState, h *cachesim.Hierarchy, res *Result) {
	// Partition contexts into ready and blocked.
	ready := cs.ready[:0]
	nextUnblock := ^uint64(0)
	active := false
	for i := range cs.ctxs {
		c := &cs.ctxs[i]
		if c.instrLeft == 0 {
			continue
		}
		active = true
		if c.blocked <= cs.now {
			ready = append(ready, c)
		} else if c.blocked < nextUnblock {
			nextUnblock = c.blocked
		}
	}
	if !active {
		cs.done = true
		return
	}
	if len(ready) == 0 {
		cs.now = nextUnblock
		return
	}

	// Fluid advance: ready contexts share IssueWidth equally. Find the
	// earliest event: a ready context reaching its memory op, or a
	// blocked context unblocking.
	n := int64(len(ready))
	w := int64(cfg.IssueWidth)
	minEvent := int64(1 << 62)
	for _, c := range ready {
		need := c.gapLeft
		if gl := int64(c.instrLeft); gl < need {
			need = gl // budget can run out mid-gap
		}
		// Cycles to execute `need` instructions at w/n IPC.
		t := (need*n + w - 1) / w
		if t < minEvent {
			minEvent = t
		}
	}
	if minEvent < 1 {
		minEvent = 1
	}
	if nextUnblock != ^uint64(0) {
		if du := int64(nextUnblock - cs.now); du < minEvent {
			minEvent = du
		}
	}

	// Advance all ready contexts by minEvent cycles of execution.
	perCtx := minEvent * w / n
	if perCtx < 1 {
		perCtx = 1
	}
	for _, c := range ready {
		exec := perCtx
		if exec > c.gapLeft {
			exec = c.gapLeft
		}
		if uint64(exec) > c.instrLeft {
			exec = int64(c.instrLeft)
		}
		c.gapLeft -= exec
		c.instrLeft -= uint64(exec)
		res.Instructions += uint64(exec)
	}
	cs.now += uint64(minEvent)

	// Issue memory operations for contexts that reached them.
	for _, c := range ready {
		if c.instrLeft == 0 || c.gapLeft > 0 {
			continue
		}
		res.MemRefs++
		done := h.Access(cs.now, cs.id, c.pending.Addr, c.pending.Write)
		c.instrLeft-- // the memory instruction itself
		res.Instructions++
		if cfg.Kind == OutOfOrder {
			// The ROB hides OverlapCycles of the latency.
			lat := int64(done-cs.now) - int64(cfg.OverlapCycles)
			if lat < 1 {
				lat = 1
			}
			c.blocked = cs.now + uint64(lat)
		} else {
			// In-order: the context blocks until the fill; other
			// contexts keep the core busy.
			c.blocked = done
		}
		c.pending = c.stream.Next()
		c.gapLeft = int64(c.pending.Gap)
		if c.gapLeft == 0 {
			c.gapLeft = 1 // back-to-back refs still issue
		}
	}
}
