package exp

import (
	"context"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"desc/internal/metrics"
	"desc/internal/stats"
	"desc/internal/workload"
)

// warmOpt is a small scale for the tests of Run on a Runner that already
// holds runs.
var warmOpt = Options{Quick: true, InstrPerContext: 300, Seed: 2905}

// mustExperiment looks up a registered experiment.
func mustExperiment(t *testing.T, id string) Experiment {
	t.Helper()
	e, ok := ByID(id)
	if !ok {
		t.Fatalf("experiment %s missing", id)
	}
	return e
}

// render runs e on r and returns its tables' markdown.
func render(ctx context.Context, r *Runner, e Experiment) (string, error) {
	tabs, err := r.Run(ctx, e)
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	for _, tab := range tabs {
		sb.WriteString(tab.Markdown())
	}
	return sb.String(), nil
}

// freshRender renders e on a fresh Runner over warmOpt.
func freshRender(t *testing.T, e Experiment) string {
	t.Helper()
	md, err := render(context.Background(), mustRunner(warmOpt), e)
	if err != nil {
		t.Fatal(err)
	}
	return md
}

// countedRenders returns e with its Run wrapped by a counter and its
// Demands planned from the wrapped Run, so every render of e counts.
func countedRenders(e Experiment, n *atomic.Int64) Experiment {
	run := e.Run
	e.Run = func(ctx context.Context, r *Runner) ([]*stats.Table, error) {
		n.Add(1)
		return run(ctx, r)
	}
	e.Demands = func(opt Options) []Demand { return planOf(e.Run, opt) }
	return e
}

// TestRunWarmRendersOnce: after Execute of an experiment's plan, Run
// renders it exactly once, from the runs the Runner holds: no re-plan,
// no re-claim through Execute, no run started.
func TestRunWarmRendersOnce(t *testing.T) {
	ctx := context.Background()
	reg := metrics.NewRegistry()
	r := mustRunner(warmOpt, WithMetrics(reg))
	var renders atomic.Int64
	e := countedRenders(mustExperiment(t, "fig14"), &renders)
	if err := r.Execute(ctx, e.Demands(r.Options())); err != nil {
		t.Fatal(err)
	}
	started := reg.Counter("exp/runs_started").Value()
	skips := reg.Counter("exp/dedup_skips").Value()
	renders.Store(0)
	md, err := render(ctx, r, e)
	if err != nil {
		t.Fatal(err)
	}
	if n := renders.Load(); n != 1 {
		t.Errorf("Run rendered fig14 %d times on a warm Runner, want 1", n)
	}
	if got := reg.Counter("exp/runs_started").Value(); got != started {
		t.Errorf("Run started %d runs on a warm Runner, want 0", got-started)
	}
	if got := reg.Counter("exp/dedup_skips").Value(); got != skips {
		t.Errorf("Run re-claimed %d runs on a warm Runner, want 0", got-skips)
	}
	if want := freshRender(t, mustExperiment(t, "fig14")); md != want {
		t.Errorf("warm render differs from a fresh Runner's:\n--- warm ---\n%s\n--- fresh ---\n%s", md, want)
	}
}

// TestRunPartialRunnerMatchesFresh: a Runner that holds only part of an
// experiment's plan renders exactly what a fresh Runner renders; the runs
// it lacks never reach the tables as stand-ins.
func TestRunPartialRunnerMatchesFresh(t *testing.T) {
	ctx := context.Background()
	e := mustExperiment(t, "fig14")
	want := freshRender(t, e)
	plan := e.Demands(warmOpt.WithDefaults())
	for _, part := range [][]Demand{plan[:1], plan[:len(plan)/2], plan[len(plan)-1:]} {
		r := mustRunner(warmOpt)
		if err := r.Execute(ctx, part); err != nil {
			t.Fatal(err)
		}
		got, err := render(ctx, r, e)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("Runner holding %d of %d runs rendered:\n%s\nwant\n%s", len(part), len(plan), got, want)
		}
	}
}

// TestRunSharedRunnerConcurrent: goroutines Run experiments that share
// baseline runs on one Runner, as the control plane's requests do, each
// planning its demands first. Every render equals the serial one. Run it
// under -race: views read runs other goroutines are still publishing.
func TestRunSharedRunnerConcurrent(t *testing.T) {
	ctx := context.Background()
	ids := []string{"fig14", "fig19", "fig22", "fig26"}
	serialRunner := mustRunner(warmOpt)
	want := map[string]string{}
	for _, id := range ids {
		md, err := render(ctx, serialRunner, mustExperiment(t, id))
		if err != nil {
			t.Fatal(err)
		}
		want[id] = md
	}
	shared := mustRunner(warmOpt, Jobs(2))
	const perExperiment = 2
	got := make([]string, len(ids)*perExperiment)
	var wg sync.WaitGroup
	for i := range got {
		e := mustExperiment(t, ids[i%len(ids)])
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = e.Demands(shared.Options())
			md, err := render(ctx, shared, e)
			if err != nil {
				t.Errorf("%s: %v", e.ID, err)
			}
			got[i] = md
		}()
	}
	wg.Wait()
	for i, md := range got {
		if id := ids[i%len(ids)]; md != want[id] {
			t.Errorf("%s (goroutine %d) differs from the serial render:\n%s\nwant\n%s", id, i, md, want[id])
		}
	}
}

// TestRunColdDiskRunnerReadsRunSet: a fresh disk-backed Runner on a warm
// cache dir holds nothing, so Run executes the experiment's whole plan
// and serves it from the run set a cold Run wrote.
func TestRunColdDiskRunnerReadsRunSet(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	e := mustExperiment(t, "fig14")
	cold, _, _ := observedRunner(t, dir)
	want, err := render(ctx, cold, e)
	if err != nil {
		t.Fatal(err)
	}
	r, reg, obs := observedRunner(t, dir)
	got, err := render(ctx, r, e)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("rerun on the warm cache dir rendered:\n%s\nwant\n%s", got, want)
	}
	if hits := reg.Counter("runcache/set_hits").Value(); hits != 1 {
		t.Errorf("runcache/set_hits = %d, want 1", hits)
	}
	if n := obs.totalStarted(); n != 0 {
		t.Errorf("rerun simulated %d runs, want 0", n)
	}
}

// doneObserver closes all once left runs have finished.
type doneObserver struct {
	left atomic.Int64
	all  chan struct{}
}

func (o *doneObserver) ExecutePlanned(int) {}
func (o *doneObserver) RunStarted(Demand)  {}
func (o *doneObserver) RunDone(Demand, error) {
	if o.left.Add(-1) == 0 {
		close(o.all)
	}
}

// TestRunDoesNotWaitOnInFlightRun: a run another caller has claimed but
// not finished counts as lacking, so Run goes on to execute the rest of
// the plan instead of waiting for it, and its render then joins the
// in-flight run.
func TestRunDoesNotWaitOnInFlightRun(t *testing.T) {
	ctx := context.Background()
	e := mustExperiment(t, "fig14")
	want := freshRender(t, e)
	plan := e.Demands(warmOpt.WithDefaults())
	obs := &doneObserver{all: make(chan struct{})}
	obs.left.Store(int64(len(plan) - 1))
	r := mustRunner(warmOpt, WithObserver(obs))
	first := plan[0]
	c := &call{done: make(chan struct{})}
	r.calls[r.key(first.Spec, first.Bench)] = c

	type result struct {
		md  string
		err error
	}
	out := make(chan result, 1)
	go func() {
		md, err := render(ctx, r, e)
		out <- result{md, err}
	}()
	select {
	case <-obs.all:
	case <-time.After(60 * time.Second):
		t.Fatal("Run did not execute the rest of its plan while one run was in flight")
	}
	prof, _ := workload.ByName(first.Bench)
	c.res, c.err = mustRunner(warmOpt).RunOne(ctx, first.Spec, prof)
	close(c.done)
	got := <-out
	if got.err != nil {
		t.Fatal(got.err)
	}
	if got.md != want {
		t.Errorf("render after the in-flight run finished:\n%s\nwant\n%s", got.md, want)
	}
}
