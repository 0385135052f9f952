// Package exp defines one reproducible experiment per figure of the
// paper's evaluation (Section 5), plus the motivating figures of Section 1
// and the characterization figures of Section 3. Each experiment runs the
// simulator over the relevant workloads and configurations and renders the
// same rows/series the paper plots, as stats.Table values.
//
// Experiments execute in two phases through a Runner (runner.go): a
// planning phase in which a dry render of each experiment lists the
// (configuration, benchmark) runs it demands, and an execution phase in
// which the Runner simulates the deduplicated demand set on a bounded
// worker pool before the experiments render their tables from the warmed
// cache.
//
// The cmd/descbench binary runs every experiment and writes markdown/CSV;
// the repository-root benchmarks run them at reduced scale.
package exp

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"desc/internal/cpusim"
	"desc/internal/energy"
	"desc/internal/stats"
	"desc/internal/wiremodel"
	"desc/internal/workload"
)

// Options scales experiments.
type Options struct {
	// Seed isolates runs; experiments are deterministic per seed.
	Seed int64
	// InstrPerContext is each hardware context's instruction budget.
	InstrPerContext uint64
	// Quick restricts sweeps and benchmark lists for fast smoke runs
	// (used by the repository benchmarks).
	Quick bool
}

// WithDefaults fills in the standard experiment scale.
func (o Options) WithDefaults() Options {
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.InstrPerContext == 0 {
		if o.Quick {
			o.InstrPerContext = 8_000
		} else {
			o.InstrPerContext = 30_000
		}
	}
	return o
}

// benchmarks returns the parallel benchmark list for the options: all
// sixteen normally, a representative subset in Quick mode.
func (o Options) benchmarks() []workload.Profile {
	all := workload.Parallel()
	if !o.Quick {
		return all
	}
	// One from each behavior family: streaming, redundant-value,
	// random-access, write-heavy.
	pick := map[string]bool{"Art": true, "CG": true, "RayTrace": true, "Radix": true}
	var out []workload.Profile
	for _, p := range all {
		if pick[p.Name] {
			out = append(out, p)
		}
	}
	return out
}

// sweepBenchmarks returns the smaller benchmark set used by wide
// parameter sweeps (Figures 14, 15, 22, 25-27) to bound run counts.
func (o Options) sweepBenchmarks() []workload.Profile {
	pick := map[string]bool{"Art": true, "CG": true, "RayTrace": true, "Radix": true}
	if o.Quick {
		pick = map[string]bool{"Art": true, "CG": true}
	}
	var out []workload.Profile
	for _, p := range workload.Parallel() {
		if pick[p.Name] {
			out = append(out, p)
		}
	}
	return out
}

// SystemSpec is one simulated configuration. The zero value plus a scheme
// is the paper's design point. All fields are comparable so the spec can
// key the run cache.
type SystemSpec struct {
	Scheme        string
	DataWires     int
	ChunkBits     int
	SegmentBits   int
	Banks         int
	CapacityBytes int
	Cells         wiremodel.DeviceClass
	Periphery     wiremodel.DeviceClass
	NUCA          bool
	ECCSegment    int // 0 = ECC off
	Kind          cpusim.CoreKind
	// Prefetch enables the next-line L2 prefetcher (extension ext03).
	Prefetch bool
}

// String renders a compact label for progress reporting: the scheme plus
// every field that differs from the design-point default, e.g.
// "desc-zero 128w 4c nuca".
func (s SystemSpec) String() string {
	parts := []string{s.Scheme, fmt.Sprintf("%dw", s.DataWires)}
	if s.ChunkBits > 0 {
		parts = append(parts, fmt.Sprintf("%dc", s.ChunkBits))
	}
	if s.SegmentBits > 0 {
		parts = append(parts, fmt.Sprintf("%ds", s.SegmentBits))
	}
	if s.Banks > 0 {
		parts = append(parts, fmt.Sprintf("%db", s.Banks))
	}
	if s.CapacityBytes > 0 {
		parts = append(parts, capLabel(s.CapacityBytes))
	}
	if s.Cells != wiremodel.DeviceClass(0) || s.Periphery != wiremodel.DeviceClass(0) {
		parts = append(parts, s.Cells.String()+"-"+s.Periphery.String())
	}
	if s.NUCA {
		parts = append(parts, "nuca")
	}
	if s.ECCSegment > 0 {
		parts = append(parts, fmt.Sprintf("ecc%d", s.ECCSegment))
	}
	if s.Kind == cpusim.OutOfOrder {
		parts = append(parts, "ooo")
	}
	if s.Prefetch {
		parts = append(parts, "pf")
	}
	return strings.Join(parts, " ")
}

// BinaryBase is the paper's baseline system: conventional binary over the
// most energy-efficient conventional organization (8 banks, 64-bit bus,
// LSTP devices).
func BinaryBase() SystemSpec {
	return SystemSpec{Scheme: "binary", DataWires: 64}
}

// DESCZero is the paper's preferred design point: zero-skipped DESC on a
// 128-wire data bus with 4-bit chunks.
func DESCZero() SystemSpec {
	return SystemSpec{Scheme: "desc-zero", DataWires: 128, ChunkBits: 4}
}

// RunResult is one simulation's outcome.
type RunResult struct {
	Bench     string
	Cycles    uint64
	Breakdown energy.Breakdown
	AvgHit    float64
	Sim       cpusim.Result
	AreaMM2   float64
	LeakageW  float64
}

// runKey identifies a cached run.
type runKey struct {
	spec  SystemSpec
	bench string
	seed  int64
	instr uint64
}

// Experiment reproduces one paper figure or table.
type Experiment struct {
	// ID is the index key, e.g. "fig16".
	ID string
	// Title describes the figure as the paper captions it.
	Title string
	// Demands returns the distinct (configuration, benchmark) runs the
	// Run phase will need, in first-request order, so the Runner can
	// batch them, deduplicate them across experiments, and execute them
	// in parallel up front. It is derived, never written: it dry-runs
	// Run on a planning Runner that records each RunOne request without
	// simulating (see planOf). Nil for experiments that do not simulate
	// full systems. TestDemandsCoverRun checks that the set covers every
	// run the Run phase performs.
	Demands func(opt Options) []Demand
	// Run renders the result tables, reading demanded runs from the
	// Runner's cache (and computing any stragglers inline).
	Run func(ctx context.Context, r *Runner) ([]*stats.Table, error)
}

var (
	registry []Experiment
	indexed  = map[string]Experiment{}
)

// registerSim installs an experiment that simulates full systems: its
// Demands are derived from its Run phase (planOf).
func registerSim(e Experiment) {
	e.Demands = func(opt Options) []Demand { return planOf(e.Run, opt) }
	register(e)
}

// register installs an experiment from an init function. It panics on a
// duplicate id (matching link.Register): a silently shadowed figure
// would corrupt descbench output. Experiments registered directly
// simulate nothing and have no Demands.
func register(e Experiment) {
	if _, dup := indexed[e.ID]; dup {
		panic("exp: duplicate experiment id " + e.ID)
	}
	indexed[e.ID] = e
	registry = append(registry, e)
}

// All returns every experiment in figure order.
func All() []Experiment {
	out := make([]Experiment, len(registry))
	copy(out, registry)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ByID finds an experiment.
func ByID(id string) (Experiment, bool) {
	e, ok := indexed[id]
	return e, ok
}

// ByIDs resolves a set of experiment ids to experiments in figure order.
// Unknown ids are an error listing every offender, so callers (descbench
// -only) fail loudly instead of silently producing an empty results
// directory.
func ByIDs(ids []string) ([]Experiment, error) {
	want := map[string]bool{}
	unknown := map[string]bool{}
	for _, id := range ids {
		if _, ok := indexed[id]; ok {
			want[id] = true
		} else {
			unknown[id] = true
		}
	}
	if len(unknown) > 0 {
		bad := make([]string, 0, len(unknown))
		for id := range unknown { //desclint:allow determinism sorted immediately below
			bad = append(bad, id)
		}
		sort.Strings(bad)
		return nil, fmt.Errorf("exp: unknown experiment ids: %s", strings.Join(bad, ", "))
	}
	var out []Experiment
	for _, e := range All() {
		if want[e.ID] {
			out = append(out, e)
		}
	}
	return out, nil
}

// ratio guards division.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// normalizer maps one run and the baseline run of the same benchmark to
// the value a figure plots, for example the run's L2 energy over the
// baseline's.
type normalizer func(res, base RunResult) float64

// l2Energy, execTime and procEnergy normalize a run's L2 energy,
// execution time and processor energy to its baseline's.
func l2Energy(res, base RunResult) float64 {
	return ratio(res.Breakdown.L2J(), base.Breakdown.L2J())
}

func execTime(res, base RunResult) float64 {
	return ratio(float64(res.Cycles), float64(base.Cycles))
}

func procEnergy(res, base RunResult) float64 {
	return ratio(res.Breakdown.ProcessorJ(), base.Breakdown.ProcessorJ())
}

// normalized is the method of the full-system figures: each spec's runs
// read against a baseline run on the same benchmark. For each profile in
// turn it requests base and then every spec, in that order, and returns
// vals[i][j][k] = norms[j](run of specs[i], run of base) on profiles[k].
// The request order is the experiment's plan (planOf records it), so a
// figure that loops over specs outside calls normalized once per spec.
func normalized(ctx context.Context, r *Runner, profiles []workload.Profile, base SystemSpec, specs []SystemSpec, norms ...normalizer) ([][][]float64, error) {
	n := len(profiles)
	flat := make([]float64, len(specs)*len(norms)*n)
	rows := make([][]float64, len(specs)*len(norms))
	vals := make([][][]float64, len(specs))
	for i := range vals {
		vals[i] = rows[i*len(norms) : (i+1)*len(norms)]
		for j := range vals[i] {
			o := (i*len(norms) + j) * n
			vals[i][j] = flat[o : o+n]
		}
	}
	for k, p := range profiles {
		b, err := r.RunOne(ctx, base, p)
		if err != nil {
			return nil, err
		}
		for i, s := range specs {
			res, err := r.RunOne(ctx, s, p)
			if err != nil {
				return nil, err
			}
			for j, norm := range norms {
				vals[i][j][k] = norm(res, b)
			}
		}
	}
	return vals, nil
}

// geomean returns the geometric mean of one spec's per-profile values. A
// value that is not positive is an error naming the spec and the
// benchmark: a geomean that skipped it would skew the figure.
func geomean(spec SystemSpec, profiles []workload.Profile, vals []float64) (float64, error) {
	g, err := stats.GeoMeanStrict(vals)
	if err != nil {
		bench := "no benchmark"
		for k, v := range vals {
			if !(v > 0) {
				bench = profiles[k].Name
				break
			}
		}
		return 0, fmt.Errorf("exp: %v on %s: %w", spec, bench, err)
	}
	return g, nil
}

// sweepPoint returns spec's geomean of each of norms over profiles,
// against the binary baseline.
func sweepPoint(ctx context.Context, r *Runner, profiles []workload.Profile, spec SystemSpec, norms ...normalizer) ([]float64, error) {
	vals, err := normalized(ctx, r, profiles, BinaryBase(), []SystemSpec{spec}, norms...)
	if err != nil {
		return nil, err
	}
	geo := make([]float64, len(norms))
	for j := range norms {
		if geo[j], err = geomean(spec, profiles, vals[0][j]); err != nil {
			return nil, err
		}
	}
	return geo, nil
}

// benchTable renders norm of each spec against base with one row per
// profile and one column per spec, closed by a geomean row. cols heads
// the table, the benchmark column first.
func benchTable(ctx context.Context, r *Runner, title string, cols []string, profiles []workload.Profile, base SystemSpec, specs []SystemSpec, norm normalizer) ([]*stats.Table, error) {
	vals, err := normalized(ctx, r, profiles, base, specs, norm)
	if err != nil {
		return nil, err
	}
	t := stats.NewTable(title, cols...)
	row := make([]string, len(specs)+1)
	for k, p := range profiles {
		row[0] = p.Name
		for i := range specs {
			row[i+1] = stats.Cell(vals[i][0][k])
		}
		t.AddRow(row...)
	}
	row[0] = "Geomean"
	for i, s := range specs {
		g, err := geomean(s, profiles, vals[i][0])
		if err != nil {
			return nil, err
		}
		row[i+1] = stats.Cell(g)
	}
	t.AddRow(row...)
	return []*stats.Table{t}, nil
}
