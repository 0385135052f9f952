package exp

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"desc/internal/cachemodel"
	"desc/internal/cachesim"
	"desc/internal/cpusim"
	"desc/internal/energy"
	"desc/internal/metrics"
	"desc/internal/runcache"
	"desc/internal/stats"
	"desc/internal/workload"
)

// Demand is one (configuration, benchmark) run an experiment declares in
// its planning phase.
type Demand struct {
	Spec  SystemSpec
	Bench string
}

// Observer receives run lifecycle events from a Runner. Implementations
// must be safe for concurrent use: the Runner invokes them from its
// worker goroutines. Observers feed progress reporting only — results
// never flow through them, so a noisy observer cannot perturb the
// deterministic output.
type Observer interface {
	// ExecutePlanned reports how many uncached, deduplicated runs an
	// Execute call is about to simulate.
	ExecutePlanned(total int)
	// RunStarted fires when a run begins simulating (cache hits and
	// singleflight joins do not fire it).
	RunStarted(d Demand)
	// RunDone fires when that simulation finishes or fails.
	RunDone(d Demand, err error)
}

// call is one singleflight cache entry: the first RunOne for a key
// computes; every other caller waits on done and reads res/err.
type call struct {
	done chan struct{}
	res  RunResult
	err  error
}

// Runner owns the run cache and the worker pool of the experiment
// pipeline. It replaces the former package-global memo map: every Runner
// has its own cache, so tests and library callers control reuse by
// controlling Runner lifetime.
//
// Results are deterministic regardless of worker count or completion
// order: each run is simulated from its own seeded generator and
// hierarchy (no shared mutable state), the cache is keyed by the full
// (spec, benchmark, seed, instructions) tuple, and table rendering
// happens in the callers' deterministic iteration order.
type Runner struct {
	opt  Options
	jobs int
	obs  Observer

	// disk, when non-nil, is the persistent content-addressed result
	// cache (internal/runcache): compute consults it before simulating
	// and writes back after, so repeated sweeps are incremental across
	// processes and machines.
	disk *runcache.Store

	// shardIndex/shardCount, when shardCount > 1, restrict Execute to a
	// deterministic 1/shardCount slice of the globally-ordered,
	// deduplicated demand plan (see Shard).
	shardIndex, shardCount int

	// reg, when non-nil, receives telemetry from every layer of the
	// runner's simulations (see internal/metrics). mx holds the runner's
	// own pre-resolved instruments; its fields are nil no-ops when reg
	// is nil.
	reg *metrics.Registry
	mx  runnerMetrics

	// sem bounds concurrently simulating runs to jobs slots.
	sem chan struct{}

	mu    sync.Mutex
	calls map[runKey]*call

	// planning makes this a planning Runner (see planOf and Run): RunOne
	// returns backing's finished result for a key backing holds, and
	// otherwise appends the request to plan and returns standIn. backing
	// is nil when planning from nothing.
	planning bool
	backing  *Runner
	plan     []Demand
}

// runnerMetrics counts the run cache's behavior: how much work the
// plan/execute pipeline actually saved.
type runnerMetrics struct {
	cacheJoins  *metrics.Counter // RunOne calls served by an existing entry
	dedupSkips  *metrics.Counter // Execute demands deduplicated before running
	shardSkips  *metrics.Counter // unique plan entries assigned to other shards
	diskHits    *metrics.Counter // runs served from the disk cache
	runsStarted *metrics.Counter
	runsDone    *metrics.Counter
	runsFailed  *metrics.Counter
}

// RunnerOption configures a Runner.
type RunnerOption func(*Runner)

// Jobs bounds the worker pool to n concurrent simulations. Zero keeps
// the default, runtime.GOMAXPROCS(0); negative values make NewRunner
// fail — a sweep silently running unbounded because of a typo'd flag is
// exactly the kind of quiet misbehavior this repository rejects loudly.
func Jobs(n int) RunnerOption {
	return func(r *Runner) {
		if n != 0 {
			r.jobs = n
		}
	}
}

// WithMetrics installs a telemetry registry: the runner and every
// simulation layer below it (cpusim, cachesim, the per-scheme codecs)
// record activity into reg. Metrics are write-only observation and never
// perturb results (TestRunnerMetricsNonPerturbing).
func WithMetrics(reg *metrics.Registry) RunnerOption {
	return func(r *Runner) { r.reg = reg }
}

// WithObserver installs a progress observer.
func WithObserver(obs Observer) RunnerOption {
	return func(r *Runner) { r.obs = obs }
}

// DiskCache installs a persistent content-addressed result cache: every
// run's outcome is looked up on disk before simulating (keyed by the
// digest of the canonicalized spec, benchmark, seed, instruction budget,
// and CodeFingerprint — see diskcache.go) and written back atomically
// after. A nil store is a no-op, so callers can pass their flag value
// through unconditionally.
func DiskCache(store *runcache.Store) RunnerOption {
	return func(r *Runner) { r.disk = store }
}

// Shard restricts Execute to one deterministic slice of its plan: the
// demand list is deduplicated in order (the globally-ordered plan every
// shard derives identically from the same demands), and the runner
// executes only the unique entries whose plan position ≡ index mod
// count. N share-nothing processes given Shard(0..N-1, N) and the same
// demand list therefore cover the plan disjointly and exhaustively.
// count < 1 or index outside [0, count) makes NewRunner fail.
func Shard(index, count int) RunnerOption {
	return func(r *Runner) {
		r.shardIndex = index
		r.shardCount = count
	}
}

// NewRunner builds a Runner with an empty cache. opt is defaulted once
// here and shared by every run the Runner performs. A negative Jobs
// option is an error.
func NewRunner(opt Options, ropts ...RunnerOption) (*Runner, error) {
	r := &Runner{
		opt:   opt.WithDefaults(),
		calls: map[runKey]*call{},
	}
	for _, o := range ropts {
		o(r)
	}
	if r.jobs < 0 {
		return nil, fmt.Errorf("exp: jobs %d is negative; use 0 for the GOMAXPROCS default", r.jobs)
	}
	if r.jobs == 0 {
		r.jobs = runtime.GOMAXPROCS(0)
	}
	if r.jobs < 1 {
		r.jobs = 1
	}
	if r.shardCount == 0 && r.shardIndex == 0 {
		r.shardCount = 1 // unsharded
	}
	if r.shardCount < 1 || r.shardIndex < 0 || r.shardIndex >= r.shardCount {
		return nil, fmt.Errorf("exp: shard %d/%d is invalid; want index in [0,count) with count >= 1",
			r.shardIndex, r.shardCount)
	}
	r.mx = runnerMetrics{
		cacheJoins:  r.reg.Counter("exp/cache_joins"),
		dedupSkips:  r.reg.Counter("exp/dedup_skips"),
		shardSkips:  r.reg.Counter("exp/shard_skips"),
		diskHits:    r.reg.Counter("exp/disk_hits"),
		runsStarted: r.reg.Counter("exp/runs_started"),
		runsDone:    r.reg.Counter("exp/runs_done"),
		runsFailed:  r.reg.Counter("exp/runs_failed"),
	}
	r.reg.Gauge("exp/jobs").Set(int64(r.jobs))
	r.reg.Gauge("exp/shard_count").Set(int64(r.shardCount))
	r.reg.Gauge("exp/shard_index").Set(int64(r.shardIndex))
	r.sem = make(chan struct{}, r.jobs)
	return r, nil
}

// Options returns the (defaulted) options every run uses.
func (r *Runner) Options() Options { return r.opt }

// key builds the cache key for a spec/benchmark pair under r's options.
func (r *Runner) key(spec SystemSpec, bench string) runKey {
	return runKey{spec: spec, bench: bench, seed: r.opt.Seed, instr: r.opt.InstrPerContext}
}

// RunOne returns the simulation result for one (configuration,
// benchmark) pair, computing it at most once per Runner: concurrent
// calls for the same key join the in-flight computation (singleflight)
// instead of recomputing it. Failed runs are evicted so a later call can
// retry; cancellation via ctx returns ctx.Err() without waiting for the
// underlying simulation.
func (r *Runner) RunOne(ctx context.Context, spec SystemSpec, prof workload.Profile) (RunResult, error) {
	key := r.key(spec, prof.Name)
	if r.planning {
		if res, ok := r.backing.held(key); ok {
			return res, nil
		}
		r.plan = append(r.plan, Demand{Spec: spec, Bench: prof.Name})
		res := standIn
		res.Bench = prof.Name
		return res, nil
	}
	r.mu.Lock()
	if c, ok := r.calls[key]; ok {
		r.mu.Unlock()
		r.mx.cacheJoins.Inc()
		select {
		case <-c.done:
			return c.res, c.err
		case <-ctx.Done():
			return RunResult{}, ctx.Err()
		}
	}
	c := &call{done: make(chan struct{})}
	r.calls[key] = c
	r.mu.Unlock()

	j := job{key: key, c: c, prof: prof}
	if r.disk != nil {
		j.digest = key.digest()
	}
	if !r.diskHit(&j) {
		r.simulate(ctx, &j)
	}
	r.publish(key, c)
	return c.res, c.err
}

// held returns r's result for key if r has finished it, without waiting:
// a key that is absent, still in flight or failed is not held, and a nil
// Runner holds nothing. A held result counts one cache join, as RunOne
// serving it would.
func (r *Runner) held(key runKey) (RunResult, bool) {
	if r == nil {
		return RunResult{}, false
	}
	r.mu.Lock()
	c, ok := r.calls[key]
	r.mu.Unlock()
	if !ok {
		return RunResult{}, false
	}
	select {
	case <-c.done:
	default:
		return RunResult{}, false
	}
	if c.err != nil { // failed after the lookup; publish has evicted it
		return RunResult{}, false
	}
	r.mx.cacheJoins.Inc()
	return c.res, true
}

// job is one run a Runner has claimed: its key, the key's digest when
// the Runner has a disk cache, the call it fills, and the profile and
// Execute group it simulates with (grp is nil outside a group).
type job struct {
	key    runKey
	digest string
	c      *call
	prof   workload.Profile
	grp    *runGroup
}

// diskHit fills j's call from the disk cache and reports whether j's key
// was there. Callers consult it outside the worker semaphore: a hit is a
// file read and must not queue behind in-flight simulations.
func (r *Runner) diskHit(j *job) bool {
	if r.disk == nil {
		return false
	}
	res, ok := r.diskGet(j.digest)
	if ok {
		r.mx.diskHits.Inc()
		j.c.res = res
	}
	return ok
}

// publish closes c's computation. A failed entry (including a cancelled
// one) is evicted before done closes, so the cache never serves a failure.
func (r *Runner) publish(key runKey, c *call) {
	if c.err != nil {
		r.mu.Lock()
		delete(r.calls, key)
		r.mu.Unlock()
	}
	close(c.done)
}

// simulate runs j's spec over its profile in a worker slot and writes
// the outcome to j's call and the disk cache. A run of an Execute group
// reads the group's generator and stream record; any other run generates
// privately.
func (r *Runner) simulate(ctx context.Context, j *job) {
	c := j.c
	select {
	case r.sem <- struct{}{}:
		defer func() { <-r.sem }()
	case <-ctx.Done():
		c.err = ctx.Err()
		return
	}
	if c.err = ctx.Err(); c.err != nil {
		return
	}
	d := Demand{Spec: j.key.spec, Bench: j.prof.Name}
	r.mx.runsStarted.Inc()
	if r.obs != nil {
		r.obs.RunStarted(d)
	}
	var gen *workload.Generator
	var streams cpusim.StreamSource
	if j.grp != nil {
		gen, streams = j.grp.open(j.prof, r.opt.Seed)
	} else {
		gen = workload.NewGenerator(j.prof, r.opt.Seed)
		streams = cpusim.Streams(gen)
	}
	c.res, c.err = Simulate(ctx, j.key.spec, gen, streams, r.opt.InstrPerContext, r.reg)
	if c.err != nil {
		r.mx.runsFailed.Inc()
	} else {
		r.mx.runsDone.Inc()
		if r.disk != nil {
			r.diskPut(j.digest, c.res)
		}
	}
	if r.obs != nil {
		r.obs.RunDone(d, c.err)
	}
}

// runGroup is the runs of one benchmark that an Execute call simulates.
// When there are two or more, they share one generator and one record of
// its access streams, made by the first of them to start.
type runGroup struct {
	once    sync.Once
	gen     *workload.Generator
	streams cpusim.StreamSource
}

// open returns the group's generator and streams, making them on first
// use.
func (g *runGroup) open(prof workload.Profile, seed int64) (*workload.Generator, cpusim.StreamSource) {
	g.once.Do(func() {
		g.gen = workload.NewGenerator(prof, seed)
		g.streams = cpusim.Streams(workload.NewSharedStreams(g.gen))
	})
	return g.gen, g.streams
}

// Execute simulates every demanded run that is not already cached,
// deduplicating keys (experiments share baselines by construction, not
// by memo luck) and fanning the remainder across the worker pool. It
// returns the first error in demand order, or ctx.Err() when cancelled
// mid-sweep. Execute only warms the cache; the experiments' Run phases
// render tables from it afterwards.
//
// Under Shard(i, n), Execute first derives the same globally-ordered
// deduplicated plan every shard derives — unique keys in first-
// occurrence demand order, before any cache state is consulted, so the
// partition is a pure function of the demand list — and then executes
// only the entries at plan positions ≡ i (mod n).
//
// With a disk cache, an unsharded Execute that claims two or more runs
// first asks for their run set: one file holding every claimed run's
// record, which serves the whole plan with one read. Without a valid set
// it consults the cache's entries for every run at once and, once every
// run has succeeded, writes the set for the next rerun. It then
// dispatches the runs left to simulate one benchmark group at a time:
// groups in order of first appearance, runs in plan order within a group,
// each taken by the next free of at most jobs workers. The runs of a
// group with two or more share one stream record, so a sweep generates
// each access stream once. A group is open from its first run's start to
// its last run's end, and in-order dispatch keeps at most jobs groups
// open, so at most jobs records are alive: each goes when its group's
// last run drops it.
func (r *Runner) Execute(ctx context.Context, demands []Demand) error {
	seen := make(map[runKey]bool, len(demands))
	var jobs []job
	for _, d := range demands {
		key := r.key(d.Spec, d.Bench)
		if seen[key] {
			r.mx.dedupSkips.Inc()
			continue
		}
		prof, ok := workload.ByName(d.Bench)
		if !ok {
			return fmt.Errorf("exp: demand names unknown benchmark %q", d.Bench)
		}
		planPos := len(seen)
		seen[key] = true
		if planPos%r.shardCount != r.shardIndex {
			r.mx.shardSkips.Inc()
			continue
		}
		jobs = append(jobs, job{key: key, prof: prof})
	}
	// Claim every uncached run, so concurrent RunOne calls join it.
	claimed := jobs[:0]
	r.mu.Lock()
	if len(r.calls) == 0 {
		// A fresh Runner's first plan sizes its map, so the claims
		// below never rehash its keys.
		r.calls = make(map[runKey]*call, len(jobs))
	}
	for _, j := range jobs {
		if _, cached := r.calls[j.key]; cached {
			r.mx.dedupSkips.Inc()
			continue
		}
		j.c = &call{done: make(chan struct{})}
		r.calls[j.key] = j.c
		claimed = append(claimed, j)
	}
	r.mu.Unlock()
	jobs = claimed
	if r.obs != nil {
		r.obs.ExecutePlanned(len(jobs))
	}

	var wg sync.WaitGroup
	hit := make([]bool, len(jobs))
	// An unsharded plan of two or more runs is served whole from its run
	// set when a valid one exists (DESIGN.md §16).
	useSet := r.disk != nil && len(jobs) >= 2 && r.shardCount == 1
	if r.disk != nil {
		for i := range jobs {
			jobs[i].digest = jobs[i].key.digest()
		}
		if useSet && r.setGet(jobs) {
			return nil
		}
		for i := range jobs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				j := &jobs[i]
				if hit[i] = r.diskHit(j); hit[i] {
					r.publish(j.key, j.c)
				}
			}()
		}
		wg.Wait()
	}

	// Queue each group's runs together, groups in order of first
	// appearance; the workers take them in queue order.
	groups := map[string][]*job{}
	var benches []string
	for i := range jobs {
		if j := &jobs[i]; !hit[i] {
			if groups[j.prof.Name] == nil {
				benches = append(benches, j.prof.Name)
			}
			groups[j.prof.Name] = append(groups[j.prof.Name], j)
		}
	}
	queue := make(chan *job, len(jobs))
	for _, b := range benches {
		var grp *runGroup
		if len(groups[b]) > 1 {
			grp = &runGroup{}
		}
		for _, j := range groups[b] {
			j.grp = grp
			queue <- j
		}
	}
	close(queue)
	for w := min(r.jobs, len(queue)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range queue {
				r.simulate(ctx, j)
				r.publish(j.key, j.c)
				j.grp = nil // a group's record goes with its last run
			}
		}()
	}
	wg.Wait()
	for _, j := range jobs {
		if j.c.err != nil {
			return j.c.err
		}
	}
	if useSet {
		r.setPut(jobs)
	}
	return nil
}

// Run renders one experiment. A simulating experiment first renders on
// a planning view of r, which reads the runs r has finished; if that
// render lacked none, its tables are the answer. Otherwise the
// experiment's demand set executes on the worker pool, and its Run phase
// renders tables from the warmed cache.
func (r *Runner) Run(ctx context.Context, e Experiment) ([]*stats.Table, error) {
	if e.Demands == nil {
		return e.Run(ctx, r)
	}
	view := &Runner{opt: r.opt, planning: true, backing: r}
	if tables, err := e.Run(ctx, view); len(view.plan) == 0 {
		return tables, err
	}
	if err := r.Execute(ctx, e.Demands(r.opt)); err != nil {
		return nil, err
	}
	return e.Run(ctx, r)
}

// standIn is what a planning Runner returns for every run: each quantity
// a render reads is 1, so every ratio, mean and geomean it takes is
// defined and the render runs its loops to the end.
var standIn = RunResult{
	Cycles: 1,
	Breakdown: energy.Breakdown{
		CoreDynJ: 1, L1DynJ: 1, CoreStaticJ: 1,
		L2HTreeJ: 1, L2ArrayJ: 1, L2StaticJ: 1, DRAMJ: 1,
	},
	AvgHit:   1,
	Sim:      cpusim.Result{Cycles: 1, Instructions: 1, MemRefs: 1, AvgHitLatencyCycles: 1},
	AreaMM2:  1,
	LeakageW: 1,
}

// planOf derives an experiment's demand set from its render phase: it
// dry-runs run on a planning Runner with no backing Runner, which records
// every RunOne request without simulating, and returns the requests
// deduplicated in first-occurrence order. A planning Runner never blocks
// and never touches the disk, the worker pool, an observer or metrics,
// save the cache join its backing Runner counts for a held result. If the
// dry render fails, planOf returns what it recorded; the real render then
// computes the remaining runs inline.
func planOf(run func(context.Context, *Runner) ([]*stats.Table, error), opt Options) []Demand {
	r := &Runner{opt: opt.WithDefaults(), planning: true}
	_, _ = run(context.Background(), r)
	seen := make(map[Demand]bool, len(r.plan))
	plan := r.plan[:0]
	for _, d := range r.plan {
		if !seen[d] {
			seen[d] = true
			plan = append(plan, d)
		}
	}
	return plan
}

// Simulate performs one full system simulation: it builds the L2 model
// and hierarchy for spec over gen's block contents, runs streams for instr
// instructions per context, and prices the run's energy. It is the only
// place the layers are assembled; the Runner, the public API and trace
// replay all call it.
//
// Simulate is a pure function of its inputs: the hierarchy and processor
// state is private to the call, and what calls share — the workload's
// calibrations and generated blocks, and a released L2 line table reset to
// its initial state — cannot change a result, which is what makes parallel
// execution deterministic. reg (may be nil) receives write-only telemetry
// from every layer and never influences the result.
func Simulate(ctx context.Context, spec SystemSpec, gen *workload.Generator, streams cpusim.StreamSource, instr uint64, reg *metrics.Registry) (RunResult, error) {
	bench := gen.Profile().Name
	if spec.ECCSegment < 0 {
		return RunResult{}, fmt.Errorf("exp: %s: ECC segment of %d bits is negative; use 0 for no ECC", bench, spec.ECCSegment)
	}
	l2 := cachemodel.Config{
		Scheme:        spec.Scheme,
		DataWires:     spec.DataWires,
		ChunkBits:     spec.ChunkBits,
		SegmentBits:   spec.SegmentBits,
		Banks:         spec.Banks,
		CapacityBytes: spec.CapacityBytes,
		Cells:         spec.Cells,
		Periphery:     spec.Periphery,
		NUCA:          spec.NUCA,
	}
	if spec.ECCSegment > 0 {
		l2.ECC = cachemodel.ECCConfig{Enabled: true, SegmentBits: spec.ECCSegment}
	}
	h, err := cachesim.New(cachesim.Config{L2: l2, PrefetchNextLine: spec.Prefetch, Metrics: reg}, gen)
	if err != nil {
		return RunResult{}, fmt.Errorf("exp: %s: %w", bench, err)
	}
	defer h.Release()
	simCfg := cpusim.Config{Kind: spec.Kind, InstrPerContext: instr, Metrics: reg}.WithDefaults()
	res, err := cpusim.RunWith(ctx, simCfg, h, streams)
	if err != nil {
		return RunResult{}, err
	}
	params := energy.NiagaraLike
	if spec.Kind == cpusim.OutOfOrder {
		params = energy.OoO4Issue
	}
	bd := energy.Compute(params, energy.Activity{
		Cycles:       res.Cycles,
		Instructions: res.Instructions,
		L1Accesses:   res.MemRefs,
		Cores:        simCfg.Cores,
		ClockGHz:     h.Model().Config().ClockGHz,
	}, h.Model(), h.DRAM())

	return RunResult{
		Bench:     bench,
		Cycles:    res.Cycles,
		Breakdown: bd,
		AvgHit:    res.AvgHitLatencyCycles,
		Sim:       res,
		AreaMM2:   h.Model().AreaMM2(),
		LeakageW:  h.Model().LeakageW(),
	}, nil
}
