package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"

	"desc/internal/cachesim"
	"desc/internal/cpusim"
	"desc/internal/workload"
)

// span is one crossing of a layer boundary, recorded from the
// benchmark's side of the call. Aggregate spans (Calls > 0) stand for
// many per-access calls of one op: their interval starts at the parent's
// start and lasts the summed call time, so they nest inside the parent
// without recording millions of spans.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root span
	Op     int    `json:"op"`     // op id; -1 for set-up and layer probes
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
	Calls  uint64 `json:"calls,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// Span names with a fixed meaning in the analysis below.
const (
	opSpan     = "op"     // one timed op; its layer is the benchmark itself
	replaySpan = "replay" // outside-in replay of an op whose layers are hidden
)

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced mode: every method is a no-op, so ops take one code path.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a span and returns its id (-1 when untraced).
func (t *tracer) begin(parent, op int, layer, name string) int {
	if t == nil {
		return -1
	}
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Layer: layer, Start: start, End: -1})
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	end := t.now()
	t.mu.Lock()
	t.spans[id].End = end
	t.mu.Unlock()
}

// aggregate records calls per-access calls totalling d inside parent.
func (t *tracer) aggregate(parent int, layer, name string, calls uint64, d time.Duration) {
	if t == nil || calls == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	p := t.spans[parent]
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Op: p.Op, Name: name, Layer: layer,
		Start: p.Start, End: p.Start + int64(d), Calls: calls})
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write stores the spans and the traced run's metrics as one JSON file.
func (t *tracer) write(path string, workloadName string, seed int64, metrics map[string]metric) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(struct {
		Workload string            `json:"workload"`
		Seed     int64             `json:"seed"`
		Metrics  map[string]metric `json:"metrics"`
		Spans    []span            `json:"spans"`
	}{workloadName, seed, metrics, t.snapshot()})
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// selfTimes returns the self time of the spans keep selects, summed by
// key: each span's duration minus the time its child spans cover.
// Children of one parent never overlap (ops are serial), so the covered
// time is their sum.
func selfTimes(spans []span, keep func(span) bool, key func(span) string) map[string]int64 {
	childNS := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			childNS[s.Parent] += s.dur()
		}
	}
	out := map[string]int64{}
	for i, s := range spans {
		if !keep(s) {
			continue
		}
		self := s.dur() - childNS[i]
		if self < 0 {
			self = 0
		}
		out[key(s)] += self
	}
	return out
}

// coverage is the share of op wall time that layer spans cover: for
// each op, the summed duration of the spans directly under the op span,
// or under its replay span when the op's layers run where the benchmark
// cannot reach (inside exp.Runner), capped at the op's own duration.
func coverage(spans []span) float64 {
	opDur := map[int]int64{}
	covered := map[int]int64{}
	for _, s := range spans {
		if s.Name == opSpan && s.Op >= 0 {
			opDur[s.Op] = s.dur()
		}
	}
	for _, s := range spans {
		if s.Parent < 0 || s.Op < 0 {
			continue
		}
		if p := spans[s.Parent]; p.Op == s.Op && (p.Name == opSpan || p.Name == replaySpan) {
			covered[s.Op] += s.dur()
		}
	}
	var num, den int64
	for op, d := range opDur {
		c := covered[op]
		if c > d {
			c = d
		}
		num += c
		den += d
	}
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// layerStat sums the spans of one name: how many, total time, and the
// per-access call count of aggregate spans.
type layerStat struct {
	n     int
	ns    int64
	calls uint64
}

func statsByName(spans []span) map[string]layerStat {
	out := map[string]layerStat{}
	for _, s := range spans {
		st := out[s.Name]
		st.n++
		st.ns += s.dur()
		st.calls += s.Calls
		out[s.Name] = st
	}
	return out
}

// meanMS is the mean span duration in milliseconds.
func (s layerStat) meanMS() float64 {
	if s.n == 0 {
		return 0
	}
	return float64(s.ns) / float64(s.n) / 1e6
}

// perCallNS is the mean time of one aggregated per-access call.
func (s layerStat) perCallNS() float64 {
	if s.calls == 0 {
		return 0
	}
	return float64(s.ns) / float64(s.calls)
}

// timedBlocks wraps the cachesim.BlockSource boundary
// (workload.Generator.FillBlockData) with a call count and total time.
type timedBlocks struct {
	src   cachesim.BlockSource
	calls uint64
	d     time.Duration
}

func (b *timedBlocks) FillBlockData(addr uint64, buf []byte) {
	t := time.Now()
	b.src.FillBlockData(addr, buf)
	b.d += time.Since(t)
	b.calls++
}

// timedStreams wraps the cpusim.StreamSource/AccessSource boundary
// (workload.Stream.Next) the same way. cpusim steps contexts serially,
// so the shared counters need no lock.
type timedStreams struct {
	gen   *workload.Generator
	calls uint64
	d     time.Duration
}

func (s *timedStreams) Stream(ctx, nctx int) cpusim.AccessSource {
	return &timedStream{parent: s, st: s.gen.Stream(ctx, nctx)}
}

type timedStream struct {
	parent *timedStreams
	st     *workload.Stream
}

func (s *timedStream) Next() workload.Access {
	t := time.Now()
	a := s.st.Next()
	s.parent.d += time.Since(t)
	s.parent.calls++
	return a
}
