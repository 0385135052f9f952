package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"desc/internal/exp"
	"desc/internal/metrics"
	"desc/internal/runcache"
	"desc/internal/workload"
)

// sweepPlan resolves the sweep experiments and their concatenated
// demand list (duplicates included: the Runner's dedup is measured).
func sweepPlan(sc scale, seed int64) (exp.Options, []exp.Experiment, []exp.Demand, int, error) {
	opt := exp.Options{Quick: true, Seed: seed, InstrPerContext: sc.sweepInstr}
	exps, err := exp.ByIDs(sc.sweepExps)
	if err != nil {
		return opt, nil, nil, 0, err
	}
	var plan []exp.Demand
	unique := map[exp.Demand]bool{}
	for _, e := range exps {
		for _, d := range e.Demands(opt.WithDefaults()) {
			plan = append(plan, d)
			unique[d] = true
		}
	}
	if len(unique) < sc.minUnique {
		return opt, nil, nil, 0, fmt.Errorf("sweep plan has %d unique demands, want at least %d", len(unique), sc.minUnique)
	}
	return opt, exps, plan, len(unique), nil
}

// runTimer is the exp.Observer that times each simulator run the Runner
// performs. With opsAreRuns set every run is one op and gets an op span.
type runTimer struct {
	mu         sync.Mutex
	tr         *tracer
	parent     int
	op         int // the pass's op when runs are not ops themselves
	next       func() int
	opsAreRuns bool
	open       map[exp.Demand]openRun
	runsMS     []float64
	gc         time.Duration // forced collections, excluded from wall time
	done       []doneRun
	failed     int
}

type openRun struct {
	t    time.Time
	span int
	op   int
}

type doneRun struct {
	d  exp.Demand
	op int
}

func (o *runTimer) ExecutePlanned(int) {}

func (o *runTimer) RunStarted(d exp.Demand) {
	o.mu.Lock()
	defer o.mu.Unlock()
	// Every simulator run starts from a collected heap, outside its
	// timing: peak memory is then set by the largest single run, not by
	// whether the collector happened to free the previous run's
	// hierarchy first.
	g := time.Now()
	runtime.GC()
	o.gc += time.Since(g)
	r := openRun{op: o.op, span: -1}
	name := "exp.run"
	if o.opsAreRuns {
		r.op, name = o.next(), opSpan
	}
	r.span = o.tr.begin(o.parent, r.op, "exp", name)
	r.t = time.Now()
	o.open[d] = r
}

func (o *runTimer) RunDone(d exp.Demand, err error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	r := o.open[d]
	delete(o.open, d)
	o.runsMS = append(o.runsMS, ms(time.Since(r.t)))
	if r.span >= 0 {
		o.tr.end(r.span)
	}
	if err != nil {
		o.failed++
	}
	o.done = append(o.done, doneRun{d: d, op: r.op})
}

// expCounts accumulates exp and runcache counters over traced passes.
type expCounts struct {
	executes                          uint64
	runsStarted, dedupSkips, diskHits uint64
	hits, misses, corrupt             uint64
}

// passResult is what one Runner pass over the plan produced.
type passResult struct {
	runner *exp.Runner
	timer  *runTimer
	render []byte
	// Run-cache lookups of the pass, read from the store's counters (a
	// Stats call would walk the cache dir inside the op).
	hits, misses uint64
}

// runPass opens the cache dir, runs the plan serially on a fresh Runner
// and renders every sweep experiment, with spans under parent.
func runPass(ctx context.Context, tr *tracer, parent, op int, next func() int, dir string, opt exp.Options,
	exps []exp.Experiment, plan []exp.Demand, opsAreRuns bool, counts *expCounts) (passResult, error) {
	reg := metrics.NewRegistry()
	sp := tr.begin(parent, op, "runcache", "runcache.Open")
	store, err := runcache.Open(dir, reg)
	tr.end(sp)
	if err != nil {
		return passResult{}, err
	}
	timer := &runTimer{tr: tr, op: op, next: next, opsAreRuns: opsAreRuns, open: map[exp.Demand]openRun{}}
	sp = tr.begin(parent, op, "exp", "exp.NewRunner")
	ropts := []exp.RunnerOption{exp.Jobs(1), exp.DiskCache(store), exp.WithObserver(timer)}
	if tr != nil {
		ropts = append(ropts, exp.WithMetrics(reg))
	}
	r, err := exp.NewRunner(opt, ropts...)
	tr.end(sp)
	if err != nil {
		return passResult{}, err
	}
	sp = tr.begin(parent, op, "exp", "exp.Execute")
	timer.parent = sp
	err = r.Execute(ctx, plan)
	tr.end(sp)
	if err != nil {
		return passResult{}, err
	}
	var render bytes.Buffer
	sp = tr.begin(parent, op, "stats", "stats.render")
	for _, e := range exps {
		tables, err := r.Run(ctx, e)
		if err != nil {
			tr.end(sp)
			return passResult{}, err
		}
		for _, t := range tables {
			render.WriteString(t.Markdown())
		}
	}
	tr.end(sp)
	pr := passResult{runner: r, timer: timer, render: render.Bytes(),
		hits: reg.Counter("runcache/hits").Value(), misses: reg.Counter("runcache/misses").Value()}
	if tr != nil {
		counts.executes++
		counts.runsStarted += reg.Counter("exp/runs_started").Value()
		counts.dedupSkips += reg.Counter("exp/dedup_skips").Value()
		counts.diskHits += reg.Counter("exp/disk_hits").Value()
		counts.hits += pr.hits
		counts.misses += pr.misses
		counts.corrupt += reg.Counter("runcache/corrupt").Value()
	}
	return pr, nil
}

// sweep holds what both sweep workloads share: the plan, the cache root
// inside the checkout, and the reference render.
type sweep struct {
	seed    int64
	opt     exp.Options
	exps    []exp.Experiment
	plan    []exp.Demand
	unique  int
	root    string
	ref     []byte // first render of the plan
	lc      *layerCounts
	nextDir int
	lastDir string
}

func newSweep(sc scale, seed int64, root string, lc *layerCounts) (*sweep, error) {
	opt, exps, plan, unique, err := sweepPlan(sc, seed)
	if err != nil {
		return nil, err
	}
	return &sweep{seed: seed, opt: opt, exps: exps, plan: plan, unique: unique, root: root, lc: lc}, nil
}

// freshDir removes the previous pass's cache dir and names an empty one.
func (s *sweep) freshDir() (string, error) {
	if s.lastDir != "" {
		if err := os.RemoveAll(s.lastDir); err != nil {
			return "", err
		}
	}
	s.nextDir++
	s.lastDir = filepath.Join(s.root, fmt.Sprintf("cache-%d", s.nextDir))
	return s.lastDir, nil
}

// checkRender compares a render with the first one this process made.
func (s *sweep) checkRender(render []byte) bool {
	if s.ref == nil {
		s.ref = render
		return true
	}
	return bytes.Equal(render, s.ref)
}

func (s *sweep) blocks() []byte { return genBlocks([]string{"Art", "CG"}, s.seed, 1024) }

func (s *sweep) close() { _ = os.RemoveAll(s.root) }

// sweepCold runs the plan on a fresh Runner over an empty cache dir;
// every simulator run is one op.
type sweepCold struct{ *sweep }

// setup warms up on the first few demands of the plan, untimed and
// without a disk cache.
func (w sweepCold) setup(ctx context.Context) ([]string, error) {
	r, err := exp.NewRunner(w.opt, exp.Jobs(1))
	if err != nil {
		return nil, err
	}
	n := len(w.plan)
	if n > 16 {
		n = 16
	}
	return nil, r.Execute(ctx, w.plan[:n])
}

func (w sweepCold) step(ctx context.Context, tr *tracer, next func() int) (stepResult, error) {
	dir, err := w.freshDir()
	if err != nil {
		return stepResult{}, err
	}
	t := time.Now()
	pass := tr.begin(-1, -1, "bench", "pass")
	pr, err := runPass(ctx, tr, pass, -1, next, dir, w.opt, w.exps, w.plan, true, &w.lc.exp)
	tr.end(pass)
	wall := time.Since(t)
	if err != nil {
		return stepResult{}, err
	}
	sr := stepResult{opMS: pr.timer.runsMS, wall: wall - pr.timer.gc, failed: pr.timer.failed}
	// Each unique demand must miss the empty cache and simulate once, and
	// the tables must match every earlier pass byte for byte.
	if !w.checkRender(pr.render) || len(pr.timer.done) != w.unique || pr.hits != 0 {
		sr.failed = len(sr.opMS)
	}
	for _, d := range pr.timer.done {
		prof, _ := workload.ByName(d.d.Bench)
		want, err := pr.runner.RunOne(ctx, d.d.Spec, prof)
		if err != nil {
			return stepResult{}, err
		}
		sr.simInstr += want.Sim.Instructions
		if tr == nil {
			continue
		}
		// The Runner hides the pipeline, so the traced run replays each
		// demand through the benchmark's own assembly; the replay must
		// reproduce the Runner's result exactly.
		rsp := tr.begin(-1, d.op, "bench", replaySpan)
		got, err := simulate(ctx, tr, rsp, d.op, d.d.Spec, prof, w.opt.Seed, w.opt.InstrPerContext, &w.lc.sim)
		tr.end(rsp)
		if err != nil || got != want {
			sr.failed++
		}
	}
	return sr, nil
}

// sweepWarm reads the same plan back from a cache dir filled in set-up;
// each op opens the store and a Runner, executes and renders.
type sweepWarm struct {
	*sweep
	dir string
}

// setup fills a fresh cache dir serially with the plan (its render is
// the reference every warm render must equal) and warms up with one op.
func (w *sweepWarm) setup(ctx context.Context) ([]string, error) {
	dir, err := w.freshDir()
	if err != nil {
		return nil, err
	}
	w.dir = dir
	pr, err := runPass(ctx, nil, -1, -1, nil, dir, w.opt, w.exps, w.plan, false, &w.lc.exp)
	if err != nil {
		return nil, err
	}
	var bad []string
	if !w.checkRender(pr.render) {
		bad = append(bad, "sweep-warm: cache fill rendered different tables than an earlier fill")
	}
	if _, ok, err := w.op(ctx, nil, -1); err != nil {
		return nil, err
	} else if !ok {
		bad = append(bad, "sweep-warm: warm-up op failed its checks")
	}
	return bad, nil
}

// op runs one warm pass; ok reports whether it simulated nothing, hit
// the cache on every demand and rendered the reference tables.
func (w *sweepWarm) op(ctx context.Context, tr *tracer, op int) (time.Duration, bool, error) {
	t := time.Now()
	sp := tr.begin(-1, op, "bench", opSpan)
	pr, err := runPass(ctx, tr, sp, op, nil, w.dir, w.opt, w.exps, w.plan, false, &w.lc.exp)
	tr.end(sp)
	d := time.Since(t)
	if err != nil {
		return d, false, err
	}
	ok := len(pr.timer.done) == 0 && pr.misses == 0 && pr.hits == uint64(w.unique) && bytes.Equal(pr.render, w.ref)
	return d, ok, nil
}

func (w *sweepWarm) step(ctx context.Context, tr *tracer, next func() int) (stepResult, error) {
	// Each op starts from a collected heap, outside its timing, as every
	// simulator run does: the process's peak memory is then set by the
	// largest op, not by where the collector's cycles fell (on one P it
	// moved max_rss_mb by 9% across runs).
	runtime.GC()
	d, ok, err := w.op(ctx, tr, next())
	if err != nil {
		return stepResult{}, err
	}
	sr := stepResult{opMS: []float64{ms(d)}, wall: d}
	if !ok {
		sr.failed = 1
	}
	return sr, nil
}
