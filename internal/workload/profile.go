// Package workload generates synthetic benchmark behavior standing in for
// the paper's applications (Table 2): the sixteen parallel programs from
// Phoenix, SPLASH-2, SPEC OpenMP and NAS, and the eight SPEC CPU2006
// programs used in the latency-tolerance study.
//
// The original binaries and inputs cannot be run here, so each benchmark is
// replaced by a profile that reproduces the properties the paper's results
// actually depend on:
//
//   - the *value statistics* of data crossing the L2 H-tree — the zero
//     chunk fraction (Figure 12, 31% average) and the fraction of chunks
//     matching the previous chunk on the same wire (Figure 13, 39%
//     geomean) — which drive every energy comparison; and
//   - the *memory access behavior* — working set, memory intensity,
//     read/write mix, locality, sharing — which drives miss rates, bank
//     contention, and the execution-time results.
//
// Block contents are a deterministic function of (benchmark, address), so
// re-fetching a block yields identical data and neighboring blocks share
// structure, exactly the mechanisms that make value skipping effective on
// real programs.
package workload

// Profile describes one benchmark.
type Profile struct {
	// Name and Suite identify the benchmark (Table 2).
	Name  string
	Suite string

	// ZeroChunkFrac is the target probability that a 4-bit chunk of L2
	// data is zero (Figure 12).
	ZeroChunkFrac float64
	// LastValueMatchFrac is the target probability that a chunk equals
	// the previous chunk transferred on the same wire (Figure 13).
	LastValueMatchFrac float64

	// WorkingSetBytes is the application's active data footprint.
	WorkingSetBytes int
	// MemRefsPerKInstr is the number of memory references per thousand
	// instructions.
	MemRefsPerKInstr int
	// WriteFrac is the store fraction of memory references.
	WriteFrac float64
	// SeqFrac and StridedFrac split references among sequential,
	// strided, and random patterns.
	SeqFrac, StridedFrac float64
	// StrideBytes is the stride of strided references.
	StrideBytes int
	// SharedFrac is the fraction of references to data shared across
	// threads (parallel profiles only).
	SharedFrac float64
}

// Parallel returns the sixteen parallel profiles of Table 2. Value
// statistics are spread around the paper's averages; the applications the
// paper singles out as having few bit-flips on a binary bus (CG, Cholesky,
// Equake, Radix, Water-NSquared, Section 5.2) get the most redundant
// values.
func Parallel() []Profile {
	return []Profile{
		{Name: "Art", Suite: "SPEC OpenMP", ZeroChunkFrac: 0.30, LastValueMatchFrac: 0.36,
			WorkingSetBytes: 24 << 20, MemRefsPerKInstr: 310, WriteFrac: 0.26,
			SeqFrac: 0.55, StridedFrac: 0.25, StrideBytes: 256, SharedFrac: 0.20},
		{Name: "Barnes", Suite: "SPLASH-2", ZeroChunkFrac: 0.28, LastValueMatchFrac: 0.35,
			WorkingSetBytes: 12 << 20, MemRefsPerKInstr: 260, WriteFrac: 0.30,
			SeqFrac: 0.30, StridedFrac: 0.20, StrideBytes: 128, SharedFrac: 0.35},
		{Name: "CG", Suite: "NAS OpenMP", ZeroChunkFrac: 0.48, LastValueMatchFrac: 0.42,
			WorkingSetBytes: 28 << 20, MemRefsPerKInstr: 360, WriteFrac: 0.18,
			SeqFrac: 0.45, StridedFrac: 0.35, StrideBytes: 512, SharedFrac: 0.30},
		{Name: "Cholesky", Suite: "SPLASH-2", ZeroChunkFrac: 0.44, LastValueMatchFrac: 0.42,
			WorkingSetBytes: 10 << 20, MemRefsPerKInstr: 280, WriteFrac: 0.28,
			SeqFrac: 0.40, StridedFrac: 0.30, StrideBytes: 256, SharedFrac: 0.25},
		{Name: "Equake", Suite: "SPEC OpenMP", ZeroChunkFrac: 0.46, LastValueMatchFrac: 0.42,
			WorkingSetBytes: 20 << 20, MemRefsPerKInstr: 330, WriteFrac: 0.24,
			SeqFrac: 0.50, StridedFrac: 0.25, StrideBytes: 128, SharedFrac: 0.15},
		{Name: "FFT", Suite: "SPLASH-2", ZeroChunkFrac: 0.24, LastValueMatchFrac: 0.30,
			WorkingSetBytes: 16 << 20, MemRefsPerKInstr: 300, WriteFrac: 0.32,
			SeqFrac: 0.60, StridedFrac: 0.25, StrideBytes: 1024, SharedFrac: 0.20},
		{Name: "FT", Suite: "NAS OpenMP", ZeroChunkFrac: 0.26, LastValueMatchFrac: 0.33,
			WorkingSetBytes: 32 << 20, MemRefsPerKInstr: 340, WriteFrac: 0.30,
			SeqFrac: 0.60, StridedFrac: 0.20, StrideBytes: 2048, SharedFrac: 0.18},
		{Name: "Linear", Suite: "Phoenix", ZeroChunkFrac: 0.40, LastValueMatchFrac: 0.42,
			WorkingSetBytes: 48 << 20, MemRefsPerKInstr: 380, WriteFrac: 0.12,
			SeqFrac: 0.80, StridedFrac: 0.10, StrideBytes: 64, SharedFrac: 0.10},
		{Name: "LU", Suite: "SPLASH-2", ZeroChunkFrac: 0.27, LastValueMatchFrac: 0.34,
			WorkingSetBytes: 8 << 20, MemRefsPerKInstr: 240, WriteFrac: 0.30,
			SeqFrac: 0.45, StridedFrac: 0.35, StrideBytes: 512, SharedFrac: 0.22},
		{Name: "MG", Suite: "NAS OpenMP", ZeroChunkFrac: 0.33, LastValueMatchFrac: 0.40,
			WorkingSetBytes: 26 << 20, MemRefsPerKInstr: 350, WriteFrac: 0.26,
			SeqFrac: 0.55, StridedFrac: 0.30, StrideBytes: 256, SharedFrac: 0.20},
		{Name: "Ocean", Suite: "SPLASH-2", ZeroChunkFrac: 0.30, LastValueMatchFrac: 0.37,
			WorkingSetBytes: 30 << 20, MemRefsPerKInstr: 370, WriteFrac: 0.28,
			SeqFrac: 0.55, StridedFrac: 0.30, StrideBytes: 4096, SharedFrac: 0.25},
		{Name: "Radix", Suite: "SPLASH-2", ZeroChunkFrac: 0.42, LastValueMatchFrac: 0.42,
			WorkingSetBytes: 16 << 20, MemRefsPerKInstr: 320, WriteFrac: 0.40,
			SeqFrac: 0.35, StridedFrac: 0.15, StrideBytes: 64, SharedFrac: 0.30},
		{Name: "RayTrace", Suite: "SPLASH-2", ZeroChunkFrac: 0.22, LastValueMatchFrac: 0.28,
			WorkingSetBytes: 14 << 20, MemRefsPerKInstr: 270, WriteFrac: 0.18,
			SeqFrac: 0.25, StridedFrac: 0.15, StrideBytes: 128, SharedFrac: 0.40},
		{Name: "Swim", Suite: "SPEC OpenMP", ZeroChunkFrac: 0.29, LastValueMatchFrac: 0.36,
			WorkingSetBytes: 22 << 20, MemRefsPerKInstr: 360, WriteFrac: 0.30,
			SeqFrac: 0.70, StridedFrac: 0.20, StrideBytes: 512, SharedFrac: 0.12},
		{Name: "Water-NSquared", Suite: "SPLASH-2", ZeroChunkFrac: 0.43, LastValueMatchFrac: 0.42,
			WorkingSetBytes: 6 << 20, MemRefsPerKInstr: 230, WriteFrac: 0.24,
			SeqFrac: 0.35, StridedFrac: 0.25, StrideBytes: 256, SharedFrac: 0.28},
		{Name: "Water-Spatial", Suite: "SPLASH-2", ZeroChunkFrac: 0.27, LastValueMatchFrac: 0.34,
			WorkingSetBytes: 6 << 20, MemRefsPerKInstr: 230, WriteFrac: 0.24,
			SeqFrac: 0.40, StridedFrac: 0.25, StrideBytes: 256, SharedFrac: 0.26},
	}
}

// SPEC returns the eight single-threaded SPEC CPU2006 profiles used in the
// latency-tolerance study (Figure 30).
func SPEC() []Profile {
	return []Profile{
		{Name: "bzip2", Suite: "SPECint 2006", ZeroChunkFrac: 0.24, LastValueMatchFrac: 0.30,
			WorkingSetBytes: 8 << 20, MemRefsPerKInstr: 290, WriteFrac: 0.28,
			SeqFrac: 0.50, StridedFrac: 0.15, StrideBytes: 64},
		{Name: "mcf", Suite: "SPECint 2006", ZeroChunkFrac: 0.34, LastValueMatchFrac: 0.40,
			WorkingSetBytes: 40 << 20, MemRefsPerKInstr: 390, WriteFrac: 0.20,
			SeqFrac: 0.15, StridedFrac: 0.10, StrideBytes: 128},
		{Name: "omnetpp", Suite: "SPECint 2006", ZeroChunkFrac: 0.30, LastValueMatchFrac: 0.36,
			WorkingSetBytes: 24 << 20, MemRefsPerKInstr: 330, WriteFrac: 0.30,
			SeqFrac: 0.20, StridedFrac: 0.10, StrideBytes: 64},
		{Name: "sjeng", Suite: "SPECint 2006", ZeroChunkFrac: 0.26, LastValueMatchFrac: 0.32,
			WorkingSetBytes: 10 << 20, MemRefsPerKInstr: 250, WriteFrac: 0.24,
			SeqFrac: 0.25, StridedFrac: 0.15, StrideBytes: 64},
		{Name: "lbm", Suite: "SPECfp 2006", ZeroChunkFrac: 0.28, LastValueMatchFrac: 0.35,
			WorkingSetBytes: 36 << 20, MemRefsPerKInstr: 380, WriteFrac: 0.40,
			SeqFrac: 0.75, StridedFrac: 0.15, StrideBytes: 1024},
		{Name: "milc", Suite: "SPECfp 2006", ZeroChunkFrac: 0.31, LastValueMatchFrac: 0.38,
			WorkingSetBytes: 30 << 20, MemRefsPerKInstr: 360, WriteFrac: 0.26,
			SeqFrac: 0.55, StridedFrac: 0.25, StrideBytes: 512},
		{Name: "namd", Suite: "SPECfp 2006", ZeroChunkFrac: 0.22, LastValueMatchFrac: 0.28,
			WorkingSetBytes: 12 << 20, MemRefsPerKInstr: 280, WriteFrac: 0.22,
			SeqFrac: 0.45, StridedFrac: 0.25, StrideBytes: 256},
		{Name: "soplex", Suite: "SPECfp 2006", ZeroChunkFrac: 0.36, LastValueMatchFrac: 0.43,
			WorkingSetBytes: 28 << 20, MemRefsPerKInstr: 340, WriteFrac: 0.20,
			SeqFrac: 0.40, StridedFrac: 0.30, StrideBytes: 512},
	}
}

// byName indexes both suite lists once.
var byName = func() map[string]Profile {
	m := map[string]Profile{}
	for _, p := range append(Parallel(), SPEC()...) {
		m[p.Name] = p
	}
	return m
}()

// ByName returns the profile with the given name from either suite list.
// The profile is a copy: changing it changes no later lookup.
func ByName(name string) (Profile, bool) {
	p, ok := byName[name]
	return p, ok
}
