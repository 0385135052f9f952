package exp

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	"desc/internal/metrics"
	"desc/internal/runcache"
	"desc/internal/workload"
)

// setPlan is a small plan with a duplicate demand: three unique runs.
var setPlan = []Demand{
	{Spec: BinaryBase(), Bench: "Art"},
	{Spec: DESCZero(), Bench: "Art"},
	{Spec: BinaryBase(), Bench: "Art"},
	{Spec: BinaryBase(), Bench: "CG"},
}

// setPlanRuns is setPlan's unique demands in plan order.
var setPlanRuns = []Demand{setPlan[0], setPlan[1], setPlan[3]}

// setFiles lists the run-set files of a cache directory.
func setFiles(t *testing.T, dir string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "sets", "*.rcs"))
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// observedRunner opens dir's store in a fresh registry and returns a
// Runner over it that counts started runs.
func observedRunner(t *testing.T, dir string) (*Runner, *metrics.Registry, *countingObserver) {
	t.Helper()
	reg := metrics.NewRegistry()
	store, err := runcache.Open(dir, reg)
	if err != nil {
		t.Fatal(err)
	}
	obs := newCountingObserver()
	return mustRunner(tiny(), WithObserver(obs), WithMetrics(reg), DiskCache(store)), reg, obs
}

// sameResults fails unless a and b hold identical results for setPlan.
func sameResults(t *testing.T, a, b *Runner) {
	t.Helper()
	for _, d := range setPlanRuns {
		prof, _ := workload.ByName(d.Bench)
		ra, err := a.RunOne(context.Background(), d.Spec, prof)
		if err != nil {
			t.Fatal(err)
		}
		rb, err := b.RunOne(context.Background(), d.Spec, prof)
		if err != nil {
			t.Fatal(err)
		}
		if ra != rb {
			t.Errorf("%s/%s: result differs\nwant: %+v\ngot:  %+v", d.Spec, d.Bench, ra, rb)
		}
	}
}

// coldSetRun executes setPlan on an empty cache dir and returns the
// Runner and the one run set it wrote.
func coldSetRun(t *testing.T, dir string) (*Runner, []byte) {
	t.Helper()
	r := mustRunner(tiny(), DiskCache(openStore(t, dir)))
	if err := r.Execute(context.Background(), setPlan); err != nil {
		t.Fatal(err)
	}
	files := setFiles(t, dir)
	if len(files) != 1 {
		t.Fatalf("cold Execute wrote %d run sets, want 1", len(files))
	}
	set, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	return r, set
}

// TestDiskCacheWarmExecuteServedBySet: a warm rerun of a plan is served
// from its run set alone — no simulation, one runcache hit and one
// exp disk hit per run, the same results as the cold run.
func TestDiskCacheWarmExecuteServedBySet(t *testing.T) {
	dir := t.TempDir()
	cold, _ := coldSetRun(t, dir)
	warm, reg, obs := observedRunner(t, dir)
	if err := warm.Execute(context.Background(), setPlan); err != nil {
		t.Fatal(err)
	}
	n := uint64(len(setPlanRuns))
	if got := obs.totalStarted(); got != 0 {
		t.Errorf("warm Execute started %d runs, want 0", got)
	}
	for name, want := range map[string]uint64{
		"runcache/hits": n, "runcache/set_hits": 1, "runcache/misses": 0,
		"runcache/corrupt": 0, "runcache/set_writes": 0, "exp/disk_hits": n,
	} { //desclint:allow determinism independent assertions
		if got := reg.Counter(name).Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	sameResults(t, cold, warm)
}

// TestDiskCacheBadSetFallsBack: a set that is valid as a file but whose
// records do not belong to their keys — swapped between two keys, or one
// that fails decodeResult — is never served. Execute takes the entries
// instead, with the cold run's results, and rewrites the set.
func TestDiskCacheBadSetFallsBack(t *testing.T) {
	for _, c := range []struct {
		name   string
		mutate func(payloads [][]byte)
	}{
		{"swapped-records", func(p [][]byte) { p[0], p[1] = p[1], p[0] }},
		{"undecodable-record", func(p [][]byte) { p[2] = []byte("not a run record") }},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			cold, valid := coldSetRun(t, dir)
			digests := make([]string, len(setPlanRuns))
			payloads := make([][]byte, len(setPlanRuns))
			for i, d := range setPlanRuns {
				prof, _ := workload.ByName(d.Bench)
				res, err := cold.RunOne(context.Background(), d.Spec, prof)
				if err != nil {
					t.Fatal(err)
				}
				digests[i] = cold.key(d.Spec, d.Bench).digest()
				if payloads[i], err = encodeResult(digests[i], res); err != nil {
					t.Fatal(err)
				}
			}
			c.mutate(payloads)
			if err := openStore(t, dir).PutSet(digests, payloads); err != nil {
				t.Fatal(err)
			}

			warm, reg, obs := observedRunner(t, dir)
			if err := warm.Execute(context.Background(), setPlan); err != nil {
				t.Fatal(err)
			}
			if got := obs.totalStarted(); got != 0 {
				t.Errorf("fallback Execute started %d runs, want 0", got)
			}
			n := uint64(len(setPlanRuns))
			for name, want := range map[string]uint64{
				"runcache/hits": n, "runcache/set_hits": 0, "runcache/corrupt": 1,
				"runcache/set_writes": 1, "exp/disk_hits": n,
			} { //desclint:allow determinism independent assertions
				if got := reg.Counter(name).Value(); got != want {
					t.Errorf("%s = %d, want %d", name, got, want)
				}
			}
			sameResults(t, cold, warm)
			files := setFiles(t, dir)
			if len(files) != 1 {
				t.Fatalf("%d run sets after the rewrite, want 1", len(files))
			}
			if got, err := os.ReadFile(files[0]); err != nil || !bytes.Equal(got, valid) {
				t.Fatalf("fallback did not rewrite the set byte-identically (read error %v)", err)
			}
		})
	}
}

// TestDiskCacheNoSetWritten: a set is written only after an unsharded
// Execute of two or more runs succeeds.
func TestDiskCacheNoSetWritten(t *testing.T) {
	broken := BinaryBase()
	broken.ECCSegment = -1 // Simulate rejects it
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, c := range []struct {
		name    string
		ctx     context.Context
		ropts   []RunnerOption
		demands []Demand
		wantErr bool
	}{
		{"one-job", context.Background(), nil, setPlan[:1], false},
		{"one-job-after-dedup", context.Background(), nil, []Demand{setPlan[0], setPlan[2]}, false},
		{"failed", context.Background(), nil, []Demand{setPlan[0], {Spec: broken, Bench: "Art"}}, true},
		{"cancelled", cancelled, nil, setPlan, true},
		{"sharded", context.Background(), []RunnerOption{Shard(0, 2)}, setPlan, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			r := mustRunner(tiny(), append(c.ropts, DiskCache(openStore(t, dir)))...)
			if err := r.Execute(c.ctx, c.demands); (err != nil) != c.wantErr {
				t.Fatalf("Execute error %v, want error %v", err, c.wantErr)
			}
			if files := setFiles(t, dir); len(files) != 0 {
				t.Fatalf("Execute wrote run sets %v", files)
			}
		})
	}
}
