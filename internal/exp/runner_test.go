package exp

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"desc/internal/cpusim"
	"desc/internal/workload"
)

// mustRunner builds a Runner or panics; the option sets used in tests are
// all valid, so a failure here is a test-harness bug, not a test outcome.
func mustRunner(opt Options, ropts ...RunnerOption) *Runner {
	r, err := NewRunner(opt, ropts...)
	if err != nil {
		panic(err)
	}
	return r
}

// countingObserver records lifecycle events under a lock.
type countingObserver struct {
	mu      sync.Mutex
	planned int
	started map[Demand]int
	ch      chan Demand // optional: receives each RunStarted demand
}

func newCountingObserver() *countingObserver {
	return &countingObserver{started: map[Demand]int{}}
}

func (o *countingObserver) ExecutePlanned(total int) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.planned += total
}

func (o *countingObserver) RunStarted(d Demand) {
	o.mu.Lock()
	o.started[d]++
	o.mu.Unlock()
	if o.ch != nil {
		o.ch <- d
	}
}

func (o *countingObserver) RunDone(Demand, error) {}

func (o *countingObserver) totalStarted() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	n := 0
	for _, c := range o.started {
		n += c
	}
	return n
}

// TestRunnerSingleflightStress hammers a small key set from many
// goroutines under -race: every key must simulate exactly once, and every
// caller must observe the identical result.
func TestRunnerSingleflightStress(t *testing.T) {
	obs := newCountingObserver()
	r := mustRunner(Options{Quick: true, InstrPerContext: 400, Seed: 1},
		Jobs(4), WithObserver(obs))
	profiles := workload.Parallel()[:4]
	const callers = 32

	results := make([][]RunResult, len(profiles))
	for i := range results {
		results[i] = make([]RunResult, callers)
	}
	var wg sync.WaitGroup
	for pi, p := range profiles {
		for c := 0; c < callers; c++ {
			wg.Add(1)
			go func(pi, c int, p workload.Profile) {
				defer wg.Done()
				res, err := r.RunOne(context.Background(), BinaryBase(), p)
				if err != nil {
					t.Errorf("%s caller %d: %v", p.Name, c, err)
					return
				}
				results[pi][c] = res
			}(pi, c, p)
		}
	}
	wg.Wait()

	for pi, p := range profiles {
		d := Demand{Spec: BinaryBase(), Bench: p.Name}
		if got := obs.started[d]; got != 1 {
			t.Errorf("%s simulated %d times, want exactly 1", p.Name, got)
		}
		for c := 1; c < callers; c++ {
			if results[pi][c] != results[pi][0] {
				t.Errorf("%s caller %d saw a different result", p.Name, c)
			}
		}
	}
	if n := obs.totalStarted(); n != len(profiles) {
		t.Errorf("%d simulations ran, want %d", n, len(profiles))
	}
}

// TestRunnerCancellation cancels mid-simulation and requires RunOne to
// return context.Canceled promptly instead of finishing the run.
func TestRunnerCancellation(t *testing.T) {
	obs := newCountingObserver()
	obs.ch = make(chan Demand, 16)
	r := mustRunner(Options{Quick: true, InstrPerContext: 200_000, Seed: 1},
		Jobs(2), WithObserver(obs))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	errc := make(chan error, 1)
	go func() {
		_, err := r.RunOne(ctx, BinaryBase(), workload.Parallel()[0])
		errc <- err
	}()

	select {
	case <-obs.ch:
		// The simulation is in flight; cancel it.
		cancel()
	case <-time.After(30 * time.Second):
		t.Fatal("simulation never started")
	}
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("RunOne returned %v, want context.Canceled", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("RunOne did not return after cancellation")
	}

	// The failed entry must have been evicted: a fresh context retries
	// and succeeds.
	quick := mustRunner(Options{Quick: true, InstrPerContext: 400, Seed: 1})
	if _, err := quick.RunOne(context.Background(), BinaryBase(), workload.Parallel()[0]); err != nil {
		t.Fatalf("retry on fresh runner failed: %v", err)
	}
}

// TestRunnerDeterminismAcrossJobs renders fig16 with one worker and with
// eight; the markdown must be byte-identical — the tentpole invariant of
// the parallel runner.
func TestRunnerDeterminismAcrossJobs(t *testing.T) {
	render := func(jobs int) string {
		r := mustRunner(tiny(), Jobs(jobs))
		e, _ := ByID("fig16")
		tabs, err := r.Run(context.Background(), e)
		if err != nil {
			t.Fatal(err)
		}
		out := ""
		for _, tab := range tabs {
			out += tab.Markdown()
		}
		return out
	}
	serial := render(1)
	parallel := render(8)
	if serial != parallel {
		t.Fatalf("fig16 differs between -jobs=1 and -jobs=8:\n--- serial ---\n%s\n--- parallel ---\n%s", serial, parallel)
	}
	if serial == "" {
		t.Fatal("fig16 rendered no output")
	}
}

// TestRunnerParallelSweepSharesCalibration runs a sweep of several specs
// over two benchmarks on Jobs(4), at a seed no other test uses, so the
// workers build the two groups' generators concurrently and race on the
// process-wide spill-calibration memo (run it under -race).
// Every result must equal the same run on a serial Runner, which then
// finds the calibrations memoized.
func TestRunnerParallelSweepSharesCalibration(t *testing.T) {
	opt := Options{Quick: true, InstrPerContext: 300, Seed: 7331}
	specs := []SystemSpec{BinaryBase(), DESCZero()}
	for _, banks := range []int{2, 4} {
		s := DESCZero()
		s.Banks = banks
		specs = append(specs, s)
	}
	var demands []Demand
	for _, p := range workload.Parallel()[:2] {
		for _, s := range specs {
			demands = append(demands, Demand{Spec: s, Bench: p.Name})
		}
	}
	parallel := mustRunner(opt, Jobs(4))
	if err := parallel.Execute(context.Background(), demands); err != nil {
		t.Fatal(err)
	}
	serial := mustRunner(opt, Jobs(1))
	for _, d := range demands {
		prof, _ := workload.ByName(d.Bench)
		got, err := parallel.RunOne(context.Background(), d.Spec, prof)
		if err != nil {
			t.Fatal(err)
		}
		want, err := serial.RunOne(context.Background(), d.Spec, prof)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("%s/%s: Jobs(4) result differs from serial:\n got %+v\nwant %+v", d.Spec, d.Bench, got, want)
		}
	}
}

// TestExecuteSharedStreamsMatchPrivate: the runs of a benchmark group that
// Execute simulates over one shared stream record, at one and at four
// workers, give exactly the results RunOne gives on a fresh Runner, where
// every run generates its streams privately. The groups mix in-order (32
// contexts) and out-of-order (one context) runs, so one record holds
// streams of two context counts; one benchmark has a single run and no
// record.
func TestExecuteSharedStreamsMatchPrivate(t *testing.T) {
	opt := Options{Quick: true, InstrPerContext: 400, Seed: 2603}
	ooo := DESCZero()
	ooo.Kind = cpusim.OutOfOrder
	var demands []Demand
	for _, s := range []SystemSpec{BinaryBase(), DESCZero(), ooo} {
		for _, p := range workload.Parallel()[:2] {
			demands = append(demands, Demand{Spec: s, Bench: p.Name})
		}
	}
	demands = append(demands, Demand{Spec: DESCZero(), Bench: workload.Parallel()[2].Name})
	private := mustRunner(opt, Jobs(1))
	for _, jobs := range []int{1, 4} {
		r := mustRunner(opt, Jobs(jobs))
		if err := r.Execute(context.Background(), demands); err != nil {
			t.Fatal(err)
		}
		for _, d := range demands {
			prof, _ := workload.ByName(d.Bench)
			got, err := r.RunOne(context.Background(), d.Spec, prof)
			if err != nil {
				t.Fatal(err)
			}
			want, err := private.RunOne(context.Background(), d.Spec, prof)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("Jobs(%d) %s/%s: shared-stream result differs from private:\n got %+v\nwant %+v",
					jobs, d.Spec, d.Bench, got, want)
			}
		}
	}
}

// openGroupsObserver tracks how many benchmark groups of an Execute are
// open, between their first RunStarted and their last RunDone, and the
// most that ever were.
type openGroupsObserver struct {
	mu            sync.Mutex
	runs          map[string]int // runs left to finish, per benchmark
	started       map[string]bool
	open, maxOpen int
}

func (o *openGroupsObserver) ExecutePlanned(int) {}

func (o *openGroupsObserver) RunStarted(d Demand) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if !o.started[d.Bench] {
		o.started[d.Bench] = true
		o.open++
		o.maxOpen = max(o.maxOpen, o.open)
	}
}

func (o *openGroupsObserver) RunDone(d Demand, _ error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.runs[d.Bench]--; o.runs[d.Bench] == 0 {
		o.open--
	}
}

// TestExecuteDispatchBound: Execute dispatches each benchmark's runs
// together, so however the demands interleave benchmarks, at most jobs
// groups — and so at most jobs shared stream records — are open at once.
func TestExecuteDispatchBound(t *testing.T) {
	opt := Options{Quick: true, InstrPerContext: 300, Seed: 2604}
	specs := []SystemSpec{BinaryBase(), DESCZero()}
	for _, banks := range []int{2, 4} {
		s := DESCZero()
		s.Banks = banks
		specs = append(specs, s)
	}
	profiles := workload.Parallel()[:4]
	var demands []Demand
	for _, s := range specs {
		for _, p := range profiles {
			demands = append(demands, Demand{Spec: s, Bench: p.Name})
		}
	}
	for _, jobs := range []int{1, 2, 3} {
		obs := &openGroupsObserver{runs: map[string]int{}, started: map[string]bool{}}
		for _, p := range profiles {
			obs.runs[p.Name] = len(specs)
		}
		r := mustRunner(opt, Jobs(jobs), WithObserver(obs))
		if err := r.Execute(context.Background(), demands); err != nil {
			t.Fatal(err)
		}
		if obs.open != 0 || len(obs.started) != len(profiles) {
			t.Fatalf("Jobs(%d): %d of %d groups started, %d still open", jobs, len(obs.started), len(profiles), obs.open)
		}
		if obs.maxOpen > jobs {
			t.Errorf("Jobs(%d): %d groups were open at once", jobs, obs.maxOpen)
		}
	}
}

// TestDemandsCoverRun: every experiment that declares a demand set must
// declare all of it — after Execute, the render phase may not trigger a
// single new simulation. This pins the plan to the run loops.
func TestDemandsCoverRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every planning experiment; skipped in -short mode")
	}
	for _, e := range All() {
		if e.Demands == nil {
			continue
		}
		e := e
		t.Run(e.ID, func(t *testing.T) {
			obs := newCountingObserver()
			r := mustRunner(tiny(), WithObserver(obs))
			if err := r.Execute(context.Background(), e.Demands(r.Options())); err != nil {
				t.Fatal(err)
			}
			warmed := obs.totalStarted()
			if warmed == 0 {
				t.Fatalf("%s declared an empty demand set", e.ID)
			}
			if _, err := e.Run(context.Background(), r); err != nil {
				t.Fatal(err)
			}
			if extra := obs.totalStarted() - warmed; extra != 0 {
				t.Errorf("%s render phase simulated %d undeclared runs", e.ID, extra)
			}
		})
	}
}
