// Package metrics is the repository's observability registry: typed
// counters, gauges, and fixed-bucket histograms behind cheap atomic hot
// paths, plus a stable-ordered Snapshot for run reports and tests.
//
// The package is stdlib-only and deterministic by construction: no
// instrument ever reads the clock, and Snapshot orders every section by
// name, so two snapshots of the same idle registry are identical. The
// simulators consult metrics write-only — instrument values never feed
// back into simulation state — which is what makes instrumentation
// provably non-perturbing: published results are byte-identical with
// metrics enabled or disabled (enforced by TestRunnerMetricsNonPerturbing
// in internal/exp).
//
// Every instrument accessor and mutator is nil-safe: a nil *Registry
// hands out nil instruments, and operations on nil instruments are
// no-ops. Instrumented code therefore carries no "is telemetry on?"
// branches of its own — it resolves its instruments once and increments
// unconditionally.
package metrics

import (
	"slices"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing uint64.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
//
//desclint:hotpath
func (c *Counter) Inc() { c.Add(1) }

// Add adds n. Safe for concurrent use and on a nil receiver.
//
//desclint:hotpath
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 on a nil receiver).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a settable int64 — a level rather than an accumulation
// (queue depths, in-flight runs, configured worker counts).
type Gauge struct {
	v atomic.Int64
}

// Set stores v. Safe for concurrent use and on a nil receiver.
//
//desclint:hotpath
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add moves the gauge by delta (negative deltas allowed).
//
//desclint:hotpath
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Value returns the current level (0 on a nil receiver).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram counts observations into fixed buckets chosen at creation.
// Bucket i counts observations v with v <= bounds[i] (and greater than
// bounds[i-1]); one extra overflow bucket catches everything above the
// last bound. Sum and Count track the exact total alongside.
type Histogram struct {
	bounds  []uint64
	buckets []atomic.Uint64 // len(bounds)+1; last is overflow
	count   atomic.Uint64
	sum     atomic.Uint64
}

// Observe records one value. Safe for concurrent use and on a nil
// receiver. The bucket scan is linear: histograms here have a dozen or so
// bounds, where a branchy binary search would cost more than it saves.
//
//desclint:hotpath
func (h *Histogram) Observe(v uint64) {
	if h == nil {
		return
	}
	h.buckets[bucket(h.bounds, v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// bucket returns the index of the bucket of bounds that counts v: the
// first bound v does not exceed, or len(bounds) for the overflow bucket.
//
//desclint:hotpath
func bucket(bounds []uint64, v uint64) int {
	i := 0
	for i < len(bounds) && v > bounds[i] {
		i++
	}
	return i
}

// Tally counts observations into a Histogram's buckets in plain fields,
// for a single owner that counts as it works and publishes once:
// Registry.AddTally adds a finished tally to a registry. The zero Tally
// is not usable; build one with NewTally.
type Tally struct {
	bounds []uint64
	counts []uint64 // len(bounds)+1; last is overflow
	sum    uint64
}

// NewTally returns an empty tally over bounds, which it sorts as
// Registry.Histogram does.
func NewTally(bounds []uint64) Tally {
	return Tally{bounds: sortedCopy(bounds), counts: make([]uint64, len(bounds)+1)}
}

// Observe records one value. Not safe for concurrent use.
//
//desclint:hotpath
func (t *Tally) Observe(v uint64) {
	t.counts[bucket(t.bounds, v)]++
	t.sum += v
}

// Count returns the number of observations (0 on a nil receiver).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the running total of observed values (0 on a nil receiver).
func (h *Histogram) Sum() uint64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// ExpBuckets builds exponential histogram bounds lo, 2lo, 4lo, … up to
// and including the first power-of-two multiple >= hi. It is the standard
// bucket shape for cycle counts, whose interesting structure is
// multiplicative.
func ExpBuckets(lo, hi uint64) []uint64 {
	if lo == 0 {
		lo = 1
	}
	var out []uint64
	for b := lo; ; b *= 2 {
		out = append(out, b)
		if b >= hi || b > 1<<62 {
			return out
		}
	}
}

// Registry owns a namespace of instruments. Instruments are get-or-create
// by name: the first caller creates, every later caller (any goroutine)
// receives the same instrument. The zero Registry is not usable; a nil
// *Registry is — it hands out nil (no-op) instruments, which is how
// instrumented code runs un-observed at zero configuration cost.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   map[string]*Counter{},
		gauges:     map[string]*Gauge{},
		histograms: map[string]*Histogram{},
	}
}

// Counter returns the named counter, creating it on first use. Returns
// nil (a no-op counter) on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. Returns nil
// (a no-op gauge) on a nil registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// ascending bounds on first use. Later callers receive the existing
// histogram regardless of the bounds they pass: bucket layout is fixed by
// the first registration. Returns nil (a no-op histogram) on a nil
// registry.
func (r *Registry) Histogram(name string, bounds []uint64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		h = &Histogram{bounds: sortedCopy(bounds), buckets: make([]atomic.Uint64, len(bounds)+1)}
		r.histograms[name] = h
	}
	return h
}

// AddTally adds t's observations to the named histogram, creating it with
// t's bounds on first use. It panics if the histogram exists with other
// bounds: their buckets do not line up. A no-op on a nil registry.
func (r *Registry) AddTally(name string, t *Tally) {
	h := r.Histogram(name, t.bounds)
	if h == nil {
		return
	}
	if !slices.Equal(h.bounds, t.bounds) {
		panic("metrics: tally bounds differ from histogram " + name)
	}
	var count uint64
	for i, n := range t.counts {
		h.buckets[i].Add(n)
		count += n
	}
	h.count.Add(count)
	h.sum.Add(t.sum)
}

// sortedCopy returns bounds sorted ascending, leaving bounds as it is.
func sortedCopy(bounds []uint64) []uint64 {
	b := slices.Clone(bounds)
	slices.Sort(b)
	return b
}

// CounterValue is one counter in a snapshot.
type CounterValue struct {
	Name  string `json:"name"`
	Value uint64 `json:"value"`
}

// GaugeValue is one gauge in a snapshot.
type GaugeValue struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// HistogramValue is one histogram in a snapshot. Counts has one entry per
// bound plus a final overflow bucket.
type HistogramValue struct {
	Name   string   `json:"name"`
	Count  uint64   `json:"count"`
	Sum    uint64   `json:"sum"`
	Bounds []uint64 `json:"bounds"`
	Counts []uint64 `json:"counts"`
}

// Snapshot is a point-in-time copy of every instrument, each section
// sorted by name. Individual values are read atomically; a snapshot taken
// while writers are active is not a consistent cut across instruments,
// but a snapshot of an idle registry is exactly reproducible.
type Snapshot struct {
	Counters   []CounterValue   `json:"counters"`
	Gauges     []GaugeValue     `json:"gauges"`
	Histograms []HistogramValue `json:"histograms"`
}

// Snapshot captures the registry. A nil registry yields the zero
// Snapshot.
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.counters { //desclint:allow determinism section sorted below
		s.Counters = append(s.Counters, CounterValue{Name: name, Value: c.Value()})
	}
	for name, g := range r.gauges { //desclint:allow determinism section sorted below
		s.Gauges = append(s.Gauges, GaugeValue{Name: name, Value: g.Value()})
	}
	for name, h := range r.histograms { //desclint:allow determinism section sorted below
		hv := HistogramValue{
			Name:   name,
			Count:  h.Count(),
			Sum:    h.Sum(),
			Bounds: append([]uint64(nil), h.bounds...),
			Counts: make([]uint64, len(h.buckets)),
		}
		for i := range h.buckets {
			hv.Counts[i] = h.buckets[i].Load()
		}
		s.Histograms = append(s.Histograms, hv)
	}
	sort.Slice(s.Counters, func(i, j int) bool { return s.Counters[i].Name < s.Counters[j].Name })
	sort.Slice(s.Gauges, func(i, j int) bool { return s.Gauges[i].Name < s.Gauges[j].Name })
	sort.Slice(s.Histograms, func(i, j int) bool { return s.Histograms[i].Name < s.Histograms[j].Name })
	return s
}
