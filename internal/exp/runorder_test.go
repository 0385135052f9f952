package exp

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"desc/internal/workload"
)

// runOrderReferenceEnv names the file that TestRunOrderFreshProcess, run
// as a child process of TestRunOrderIndependence, writes its results to.
const runOrderReferenceEnv = "DESC_RUN_ORDER_REFERENCE"

// runOrderPlan is the short design-space sweep whose runs share one seed
// and two benchmarks across many bus schemes and L2 geometries: the quick
// demands of figures 14, 15, 22, 25, 26 and 27 at 500 instructions per
// context, deduplicated in first-occurrence order.
func runOrderPlan(t *testing.T) (Options, []Demand) {
	t.Helper()
	opt := Options{Quick: true, Seed: 1501, InstrPerContext: 500}
	exps, err := ByIDs([]string{"fig14", "fig15", "fig22", "fig25", "fig26", "fig27"})
	if err != nil {
		t.Fatal(err)
	}
	var plan []Demand
	seen := map[Demand]bool{}
	for _, e := range exps {
		for _, d := range e.Demands(opt.WithDefaults()) {
			if !seen[d] {
				seen[d] = true
				plan = append(plan, d)
			}
		}
	}
	return opt, plan
}

// runInOrder executes order on a fresh Runner with the given worker count
// and returns the JSON encoding of each result of plan, in plan order.
func runInOrder(t *testing.T, opt Options, plan, order []Demand, jobs int) []json.RawMessage {
	t.Helper()
	r := mustRunner(opt, Jobs(jobs))
	if err := r.Execute(context.Background(), order); err != nil {
		t.Fatal(err)
	}
	out := make([]json.RawMessage, len(plan))
	for i, d := range plan {
		prof, _ := workload.ByName(d.Bench)
		res, err := r.RunOne(context.Background(), d.Spec, prof)
		if err != nil {
			t.Fatal(err)
		}
		if out[i], err = json.Marshal(res); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// TestRunOrderFreshProcess is the reference half of
// TestRunOrderIndependence: run as a child process, it executes the plan
// forwards on one worker in a process whose shared caches start empty.
func TestRunOrderFreshProcess(t *testing.T) {
	path := os.Getenv(runOrderReferenceEnv)
	if path == "" {
		t.Skip("runs only as the child process of TestRunOrderIndependence")
	}
	opt, plan := runOrderPlan(t)
	ref, err := json.Marshal(runInOrder(t, opt, plan, plan, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, ref, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestRunOrderIndependence: the runs of a process share generated blocks
// and recycled L2 line tables, so a run must not depend on which runs came
// before it. Executing the plan forwards on one worker and then reversed
// on four — interleaving L2 geometries differently each time, after
// whatever this process ran before — must give every run byte for byte
// the result a fresh process gives it.
func TestRunOrderIndependence(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates a 100-run sweep three times")
	}
	path := filepath.Join(t.TempDir(), "reference.json")
	cmd := exec.Command(os.Args[0], "-test.run=^TestRunOrderFreshProcess$")
	cmd.Env = append(os.Environ(), runOrderReferenceEnv+"="+path)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("fresh-process run: %v\n%s", err, out)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want []json.RawMessage
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}

	opt, plan := runOrderPlan(t)
	if len(plan) < 100 {
		t.Fatalf("plan has %d demands, want the full sweep of at least 100", len(plan))
	}
	if len(want) != len(plan) {
		t.Fatalf("fresh process returned %d results for %d demands", len(want), len(plan))
	}
	reversed := make([]Demand, len(plan))
	for i, d := range plan {
		reversed[len(plan)-1-i] = d
	}
	for _, pass := range []struct {
		name  string
		order []Demand
		jobs  int
	}{
		{"forwards, Jobs(1)", plan, 1},
		{"reversed, Jobs(4)", reversed, 4},
	} {
		got := runInOrder(t, opt, plan, pass.order, pass.jobs)
		for i, d := range plan {
			if !bytes.Equal(got[i], want[i]) {
				t.Errorf("%s: %s/%s differs from the fresh process:\n got %s\nwant %s",
					pass.name, d.Spec, d.Bench, got[i], want[i])
			}
		}
	}
}
