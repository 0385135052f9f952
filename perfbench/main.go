// Command perfbench is the repository benchmark. One invocation runs one
// workload and prints every metric by name with its unit; the last line
// of standard output is a JSON object with the keys correct, attempted,
// failed and metrics.
//
//	perfbench --workload sim-design-point --seed 1 --seconds 20 --trace 0
//	perfbench compare -a a1.json,a2.json -b b1.json,b2.json
//
// It must run from the repository root (it reads
// testdata/golden_simresults.json there) and is built and started by
// run.sh, which keeps every build and run artefact inside the checkout.
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// run alternates untraced and traced steps and reports the per-layer
// metrics, writing its spans to <work dir>/traces/. README.md records
// why each workload exists and which layers it should and should not
// stress.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// processStart anchors the first set-up: setup_s runs from process start
// to the first timed op.
var processStart = time.Now()

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// stepResult is what one step of a workload did: the latency of each op
// it completed, its wall time, how many ops failed (an error or an
// output-check mismatch) and how many instructions it simulated.
type stepResult struct {
	opMS     []float64
	wall     time.Duration
	failed   int
	simInstr uint64
}

// benchWorkload is one benchmark workload. setup returns one message per
// failed set-up check; step runs a fixed unit of work, traced when tr is
// non-nil, numbering its ops with next.
type benchWorkload interface {
	setup(ctx context.Context) ([]string, error)
	step(ctx context.Context, tr *tracer, next func() int) (stepResult, error)
	blocks() []byte
	close()
}

// scale sizes the workloads; tests use a tiny one.
type scale struct {
	simInstr    uint64   // per-context budget of a sim-design-point op
	sweepInstr  uint64   // per-context budget of a sweep run
	sweepExps   []string // experiments whose demands form the sweep plan
	minUnique   int      // required unique demands in the sweep plan
	serveBlocks int      // 64-byte blocks per encode request
	setups      int      // set-ups per untraced run; setup_s is their median
	probeInstr  uint64   // budget of the traced probe of an idle simulator
}

var fullScale = scale{
	simInstr:    12_000,
	sweepInstr:  500,
	sweepExps:   []string{"fig14", "fig15", "fig22", "fig25", "fig26", "fig27"},
	minUnique:   100,
	serveBlocks: 4096,
	setups:      5,
	probeInstr:  2_000,
}

var tinyScale = scale{
	simInstr:    300,
	sweepInstr:  200,
	sweepExps:   []string{"fig26"},
	minUnique:   1,
	serveBlocks: 64,
	setups:      1,
	probeInstr:  300,
}

// workloadDef names a workload. stepsPerSecond is its nominal step rate
// on the reference machine (2 cores): a run's step count depends on
// --seconds alone, never on the speed of the code, so every run of a
// workload has the same op mix and the same sample base for op_ms_p90.
type workloadDef struct {
	stepsPerSecond float64
	make           func(sc scale, seed int64, root string, lc *layerCounts) (benchWorkload, error)
}

var workloads = map[string]workloadDef{
	"sim-design-point": {0.55, func(sc scale, seed int64, _ string, lc *layerCounts) (benchWorkload, error) {
		return newSimDesignPoint(sc, seed, lc)
	}},
	"sweep-cold": {0.3, func(sc scale, seed int64, root string, lc *layerCounts) (benchWorkload, error) {
		s, err := newSweep(sc, seed, root, lc)
		return sweepCold{s}, err
	}},
	"sweep-warm": {150, func(sc scale, seed int64, root string, lc *layerCounts) (benchWorkload, error) {
		s, err := newSweep(sc, seed, root, lc)
		return &sweepWarm{sweep: s}, err
	}},
	"serve-encode": {1300, func(sc scale, seed int64, _ string, _ *layerCounts) (benchWorkload, error) {
		return newServeEncode(sc, seed), nil
	}},
}

// config is one invocation.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	workDir  string // cache dirs and trace files, inside the checkout
	sc       scale
	steps    int // overrides the step count when positive (tests)
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout, os.Stderr))
	}
	os.Exit(benchMain(os.Args[1:], os.Stdout, os.Stderr))
}

func benchMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfg := config{sc: fullScale}
	fs.StringVar(&cfg.workload, "workload", "", "workload: sim-design-point, sweep-cold, sweep-warm or serve-encode")
	fs.Int64Var(&cfg.seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	fs.IntVar(&cfg.seconds, "seconds", 20, "nominal measured seconds; fixes the step count")
	traceFlag := fs.Int("trace", 0, "1 runs the traced variant and reports per-layer metrics")
	fs.StringVar(&cfg.workDir, "work-dir", ".bench_build/perfbench", "directory for cache dirs and trace files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.trace = *traceFlag == 1
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintf(stderr, "perfbench: --trace must be 0 or 1, not %d\n", *traceFlag)
		return 2
	}
	if _, ok := workloads[cfg.workload]; !ok || cfg.seconds < 1 {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q or --seconds < 1\n", cfg.workload)
		return 2
	}
	// One P: every workload is one closed-loop client or a serial
	// simulation. A second P mostly adds cross-CPU wake-ups, whose
	// latency depends on the host's other tenants: on two Ps
	// serve-encode's p90 spread 23-34% across runs, on one P 2.5%.
	runtime.GOMAXPROCS(1)
	res, report, err := run(context.Background(), cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	for _, line := range report {
		fmt.Fprintln(stdout, line)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(out))
	return 0
}

// run sets the workload up, runs its fixed number of steps and returns
// the result plus human-readable report lines.
func run(ctx context.Context, cfg config) (result, []string, error) {
	def := workloads[cfg.workload]
	root := filepath.Join(cfg.workDir, fmt.Sprintf("%s-%d", cfg.workload, os.Getpid()))
	lc := &layerCounts{}
	w, err := def.make(cfg.sc, cfg.seed, root, lc)
	if err != nil {
		return result{}, nil, err
	}
	defer w.close()
	defer os.RemoveAll(root)

	// Set-up runs several times (once when traced, where setup_s is not
	// reported); setup_s is the median, the first measured from process
	// start. An untraced run samples the host's speed after each set-up
	// and between steps, outside every timing (see hostref.go).
	setups := cfg.sc.setups
	var ref *hostRef
	if cfg.trace {
		setups = 1
	} else {
		ref = newHostRef()
	}
	var setupS []float64
	var setupEnds []time.Time
	var bad []string
	for i := 0; i < setups; i++ {
		t := time.Now()
		if i == 0 {
			t = processStart
		}
		b, err := w.setup(ctx)
		if err != nil {
			return result{}, nil, fmt.Errorf("%s set-up: %w", cfg.workload, err)
		}
		setupS = append(setupS, time.Since(t).Seconds())
		setupEnds = append(setupEnds, time.Now())
		bad = append(bad, b...)
		if ref != nil {
			ref.mark()
		}
	}

	steps := cfg.steps
	if steps <= 0 {
		steps = int(math.Round(def.stepsPerSecond * float64(cfg.seconds)))
	}
	if steps < 2 {
		steps = 2
	}
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	nextOp := 0
	next := func() int { nextOp++; return nextOp - 1 }
	var plain, traced stepTotals
	var plainSteps []stepResult
	var stepEnds []time.Time
	var mem runtimeTotals
	for i := 0; i < steps; i++ {
		// Traced runs alternate untraced and traced steps, so both
		// halves see the same op mix and the tracing overhead is their
		// difference.
		if cfg.trace && i%2 == 1 {
			sr, err := w.step(ctx, tr, next)
			if err != nil {
				return result{}, nil, err
			}
			traced.add(sr)
			continue
		}
		if cfg.trace {
			mem.before()
		}
		sr, err := w.step(ctx, nil, next)
		if cfg.trace {
			mem.after()
		}
		if err != nil {
			return result{}, nil, err
		}
		plain.add(sr)
		if ref != nil {
			plainSteps = append(plainSteps, sr)
			stepEnds = append(stepEnds, time.Now())
			ref.due()
		}
	}
	if ref != nil {
		ref.mark()
	}

	res := result{
		Attempted: len(plain.opMS) + len(traced.opMS),
		Failed:    plain.failed + traced.failed,
	}
	res.Correct = res.Failed == 0 && len(bad) == 0
	var report []string
	for _, b := range bad {
		report = append(report, "check failed: "+b)
	}
	if !cfg.trace {
		// Timings are scaled to the reference host, each step by the
		// kernel bursts either side of it; a report line gives the raw
		// figures.
		var opMS []float64
		var wall time.Duration
		for i, sr := range plainSteps {
			f := ref.scaleAt(stepEnds[i])
			for _, d := range sr.opMS {
				opMS = append(opMS, d*f)
			}
			wall += time.Duration(float64(sr.wall) * f)
		}
		var scaledSetupS []float64
		for i, d := range setupS {
			scaledSetupS = append(scaledSetupS, d*ref.scaleAt(setupEnds[i]))
		}
		p50 := percentile(opMS, 50)
		tail, tailName, beyond := tailPercentile(opMS)
		rate := float64(len(opMS)) / wall.Seconds()
		res.Metrics = map[string]metric{
			"setup_s":    {median(scaledSetupS), "s"},
			"ops_per_s":  {rate, "1/s"},
			"op_ms_p50":  {p50, "ms"},
			"op_ms_p90":  {tail, "ms"},
			"max_rss_mb": {maxRSSMB(), "MB"},
		}
		rawTail, _, _ := tailPercentile(plain.opMS)
		report = append(report,
			fmt.Sprintf("%s seed %d: %d steps, %d ops, %d failed; set-ups %.4g s", cfg.workload, cfg.seed, steps, res.Attempted, res.Failed, setupS),
			fmt.Sprintf("op latency tail reported as %s: %d of %d ops lie beyond it", tailName, beyond, len(plain.opMS)),
			fmt.Sprintf("host reference kernel: median %.4g ms over %d samples in %d bursts against %g ms on the reference host",
				median(ref.samples), len(ref.samples), len(ref.bursts), refKernelMS),
			fmt.Sprintf("raw: setup_s %.6g s, ops_per_s %.6g 1/s, op_ms_p50 %.6g ms, op_ms_p90 %.6g ms",
				median(setupS), float64(len(plain.opMS))/plain.wall.Seconds(), percentile(plain.opMS, 50), rawTail))
		if plain.simInstr > 0 {
			report = append(report, fmt.Sprintf("sim_minstr_per_s %.4f Minstr/s (simulated instructions per scaled host second)",
				float64(plain.simInstr)/wall.Seconds()/1e6))
		}
		for _, name := range sortedKeys(res.Metrics) {
			report = append(report, fmt.Sprintf("%s %.6g %s", name, res.Metrics[name].Value, res.Metrics[name].Unit))
		}
		return res, report, nil
	}

	if err := probeIdleLayers(ctx, cfg, w, tr, lc); err != nil {
		return result{}, nil, fmt.Errorf("layer probes: %w", err)
	}
	res.Metrics = layerMetrics(tr.snapshot(), lc, &plain, &traced, &mem)
	path := filepath.Join(cfg.workDir, "traces", fmt.Sprintf("%s-seed%d.json", cfg.workload, cfg.seed))
	if err := tr.write(path, cfg.workload, cfg.seed, res.Metrics); err != nil {
		return result{}, nil, err
	}
	report = append(report, fmt.Sprintf("%s seed %d traced: %d ops (%d traced), %d failed; spans in %s",
		cfg.workload, cfg.seed, res.Attempted, len(traced.opMS), res.Failed, path))
	for _, name := range sortedKeys(res.Metrics) {
		report = append(report, fmt.Sprintf("%s %.6g %s", name, res.Metrics[name].Value, res.Metrics[name].Unit))
	}
	return res, report, nil
}

// stepTotals accumulates steps of one kind.
type stepTotals struct {
	opMS     []float64
	wall     time.Duration
	failed   int
	simInstr uint64
}

func (t *stepTotals) add(sr stepResult) {
	t.opMS = append(t.opMS, sr.opMS...)
	t.wall += sr.wall
	t.failed += sr.failed
	t.simInstr += sr.simInstr
}

// runtimeTotals sums the Go runtime's allocation and GC counters over
// untraced steps.
type runtimeTotals struct {
	m0                    runtime.MemStats
	mallocs, bytes, numGC uint64
}

func (r *runtimeTotals) before() { runtime.ReadMemStats(&r.m0) }

func (r *runtimeTotals) after() {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	r.mallocs += m.Mallocs - r.m0.Mallocs
	r.bytes += m.TotalAlloc - r.m0.TotalAlloc
	r.numGC += uint64(m.NumGC - r.m0.NumGC)
}

// percentile is the nearest-rank percentile of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// tailPercentile returns p90 when at least ten samples lie beyond it,
// otherwise the highest percentile in steps of five that has them.
func tailPercentile(xs []float64) (value float64, name string, beyond int) {
	for p := 90; p > 50; p -= 5 {
		rank := int(math.Ceil(float64(p) / 100 * float64(len(xs))))
		if len(xs)-rank >= 10 {
			return percentile(xs, float64(p)), fmt.Sprintf("p%d", p), len(xs) - rank
		}
	}
	rank := int(math.Ceil(0.5 * float64(len(xs))))
	return percentile(xs, 50), "p50", len(xs) - rank
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// maxRSSMB is the process's peak resident set size.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

func sortedKeys(m map[string]metric) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
