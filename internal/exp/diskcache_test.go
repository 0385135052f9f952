package exp

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"desc/internal/runcache"
	"desc/internal/workload"
)

// openStore opens a runcache store or fails the test.
func openStore(t *testing.T, dir string) *runcache.Store {
	t.Helper()
	s, err := runcache.Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// entryPath reconstructs a store entry's file path from its key (the
// store fans entries out under two-character prefix directories).
func entryPath(dir, key string) string {
	return filepath.Join(dir, key[:2], key+".rc")
}

// TestDiskCacheWarmExecuteRunsNothing is the tentpole invariant: an
// Execute against a fully warm disk cache performs zero simulator runs
// and reproduces the cold run's results exactly.
func TestDiskCacheWarmExecuteRunsNothing(t *testing.T) {
	dir := t.TempDir()
	demands := []Demand{
		{Spec: BinaryBase(), Bench: "Art"},
		{Spec: DESCZero(), Bench: "Art"},
		{Spec: BinaryBase(), Bench: "CG"},
	}

	cold := newCountingObserver()
	r1 := mustRunner(tiny(), WithObserver(cold), DiskCache(openStore(t, dir)))
	if err := r1.Execute(context.Background(), demands); err != nil {
		t.Fatal(err)
	}
	if got := cold.totalStarted(); got != len(demands) {
		t.Fatalf("cold run simulated %d runs, want %d", got, len(demands))
	}

	warm := newCountingObserver()
	r2 := mustRunner(tiny(), WithObserver(warm), DiskCache(openStore(t, dir)))
	if err := r2.Execute(context.Background(), demands); err != nil {
		t.Fatal(err)
	}
	if got := warm.totalStarted(); got != 0 {
		t.Fatalf("warm run simulated %d runs, want 0", got)
	}

	// The recovered results must be identical to the computed ones.
	for _, d := range demands {
		prof, _ := workload.ByName(d.Bench)
		a, err := r1.RunOne(context.Background(), d.Spec, prof)
		if err != nil {
			t.Fatal(err)
		}
		b, err := r2.RunOne(context.Background(), d.Spec, prof)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Errorf("%s/%s: disk round trip changed the result\ncold: %+v\nwarm: %+v", d.Spec, d.Bench, a, b)
		}
	}
}

// TestDiskCacheCorruptEntryRecomputed: truncated, checksum-corrupt, and
// wrong-version entries, and version-1 JSON records, must be silently
// recomputed — never fatal, never served stale, always counted corrupt
// — and the recompute must repair the entry on disk.
func TestDiskCacheCorruptEntryRecomputed(t *testing.T) {
	mutations := []struct {
		name string
		// mutate derives the planted entry from the valid one, the
		// entry's key digest and the run's result.
		mutate func(entry []byte, digest string, res RunResult) []byte
	}{
		{"truncated", func(b []byte, _ string, _ RunResult) []byte { return b[:len(b)/2] }},
		{"checksum-corrupt", func(b []byte, _ string, _ RunResult) []byte {
			out := append([]byte(nil), b...)
			out[len(out)-2] ^= 0x40
			return out
		}},
		{"wrong-version", func(b []byte, _ string, _ RunResult) []byte {
			return bytes.Replace(b, []byte("desc-runcache 1 "), []byte("desc-runcache 9 "), 1)
		}},
		{"payload-not-json", func(b []byte, _ string, _ RunResult) []byte {
			nl := bytes.IndexByte(b, '\n')
			// Keep a valid envelope over garbage: exercises the exp-layer
			// decode rejection, not just the store checksum.
			return encodeEnvelope(bytes.Repeat([]byte("x"), nl))
		}},
		{"legacy-json-v1", func(_ []byte, digest string, res RunResult) []byte {
			// A checksum-valid entry as the JSON cache wrote it: it must
			// be recomputed once and rewritten as a binary record.
			return encodeEnvelope(legacyJSONPayload(digest, res))
		}},
	}
	for _, m := range mutations {
		t.Run(m.name, func(t *testing.T) {
			dir := t.TempDir()
			spec := BinaryBase()
			prof, _ := workload.ByName("Art")

			r1 := mustRunner(tiny(), DiskCache(openStore(t, dir)))
			want, err := r1.RunOne(context.Background(), spec, prof)
			if err != nil {
				t.Fatal(err)
			}

			digest := r1.key(spec, prof.Name).digest()
			path := entryPath(dir, digest)
			valid, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, m.mutate(valid, digest, want), 0o644); err != nil {
				t.Fatal(err)
			}

			obs := newCountingObserver()
			store := openStore(t, dir)
			r2 := mustRunner(tiny(), WithObserver(obs), DiskCache(store))
			got, err := r2.RunOne(context.Background(), spec, prof)
			if err != nil {
				t.Fatalf("corrupt cache entry surfaced as an error: %v", err)
			}
			if got != want {
				t.Fatalf("recompute after corruption changed the result")
			}
			if obs.totalStarted() != 1 {
				t.Fatalf("corrupt entry did not trigger a recompute (started %d)", obs.totalStarted())
			}
			if c := store.Stats().Corrupt; c != 1 {
				t.Errorf("corrupt entry counted %d times in runcache/corrupt, want 1", c)
			}
			repaired, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(repaired, valid) {
				t.Fatal("recompute did not rewrite the entry byte-identically")
			}
		})
	}
}

// encodeEnvelope mirrors the runcache envelope for the payload mutations
// above: a checksum-valid entry wrapping a payload the exp layer must
// still reject.
func encodeEnvelope(payload []byte) []byte {
	sum := sha256.Sum256(payload)
	header := fmt.Sprintf("desc-runcache 1 sha256:%x %d\n", sum, len(payload))
	return append([]byte(header), payload...)
}

// legacyJSONPayload is the version-1 payload the JSON cache wrote for a
// run: the record's version, key digest and result, marshaled by
// encoding/json in struct order. Marshal fails only on a NaN or
// infinite field, which no finished run holds.
func legacyJSONPayload(digest string, res RunResult) []byte {
	b, err := json.Marshal(struct {
		Version int       `json:"version"`
		Key     string    `json:"key"`
		Result  RunResult `json:"result"`
	}{1, digest, res})
	if err != nil {
		panic(err)
	}
	return b
}

// TestDiskRecordCoversEveryField perturbs every leaf field of RunResult
// and the structs it embeds (found by reflection, so a newly added field
// fails this test until putResult and getResult carry it) and requires
// each perturbation to decode back to an equal RunResult and to encode
// to a payload no other perturbation shares.
func TestDiskRecordCoversEveryField(t *testing.T) {
	digest := runKey{spec: BinaryBase(), bench: "Art", seed: 1, instr: 100}.digest()
	seen := map[string]string{}
	check := func(field string, res RunResult) {
		payload, err := encodeResult(digest, res)
		if err != nil {
			t.Fatal(err)
		}
		if got, ok := decodeResult(digest, payload); !ok {
			t.Errorf("%s: the record of a perturbed result does not decode", field)
		} else if got != res {
			t.Errorf("%s: the record does not carry the field\nput: %+v\ngot: %+v", field, res, got)
		}
		if prev, dup := seen[string(payload)]; dup {
			t.Errorf("fields %s and %s encode to the same payload: the record does not cover them", prev, field)
		}
		seen[string(payload)] = field
	}

	base := RunResult{Bench: "Art"}
	check("the unperturbed result", base)
	leaves := 0
	var walk func(path string, typ reflect.Type, index []int)
	walk = func(path string, typ reflect.Type, index []int) {
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			name, idx := path+"."+f.Name, append(append([]int(nil), index...), i)
			if f.Type.Kind() == reflect.Struct {
				walk(name, f.Type, idx)
				continue
			}
			res := base
			fv := reflect.ValueOf(&res).Elem().FieldByIndex(idx)
			switch f.Type.Kind() {
			case reflect.String:
				fv.SetString("perturbed")
			case reflect.Uint64:
				fv.SetUint(fv.Uint() + 7)
			case reflect.Float64:
				fv.SetFloat(fv.Float() + 1.5)
			default:
				t.Fatalf("RunResult%s has kind %s; teach this test and the disk record about it", name, f.Type.Kind())
			}
			leaves++
			check("RunResult"+name, res)
		}
	}
	walk("", reflect.TypeOf(base), nil)
	if want := diskNumericFields + 1; leaves != want {
		t.Errorf("RunResult has %d leaf fields; the record carries %d", leaves, want)
	}
}

// TestRunKeyEqualKeysEqualDigest: content addressing must be a function
// of value, not construction path — two keys that compare equal digest
// equal, byte for byte.
func TestRunKeyEqualKeysEqualDigest(t *testing.T) {
	built := runKey{
		spec:  SystemSpec{Scheme: "desc-zero", DataWires: 128, ChunkBits: 4},
		bench: "Art", seed: 7, instr: 1000,
	}
	var assembled runKey
	assembled.spec.Scheme = strings.Join([]string{"desc", "zero"}, "-")
	assembled.spec.DataWires = 64 * 2
	assembled.spec.ChunkBits = 4
	assembled.bench = "Art"
	assembled.seed = 7
	assembled.instr = 1000
	if built != assembled {
		t.Fatal("test bug: keys should compare equal")
	}
	if built.canonical() != assembled.canonical() {
		t.Fatal("equal keys canonicalize differently")
	}
	if built.digest() != assembled.digest() {
		t.Fatal("equal keys digest differently")
	}
}

// TestRunKeyDigestCoversEveryField perturbs each SystemSpec field (found
// by reflection, so a newly added field fails this test until canonical()
// learns it) plus bench/seed/instr, and requires every perturbation to
// change the digest.
func TestRunKeyDigestCoversEveryField(t *testing.T) {
	base := runKey{spec: SystemSpec{Scheme: "binary", DataWires: 64}, bench: "Art", seed: 1, instr: 100}
	seen := map[string]string{"": base.digest()}

	specType := reflect.TypeOf(SystemSpec{})
	for i := 0; i < specType.NumField(); i++ {
		f := specType.Field(i)
		k := base
		fv := reflect.ValueOf(&k.spec).Elem().Field(i)
		switch f.Type.Kind() {
		case reflect.String:
			fv.SetString("perturbed")
		case reflect.Bool:
			fv.SetBool(true)
		case reflect.Int:
			fv.SetInt(fv.Int() + 7)
		default:
			t.Fatalf("SystemSpec.%s has kind %s; teach this test (and canonical()) about it", f.Name, f.Type.Kind())
		}
		seen["spec."+f.Name] = k.digest()
	}
	{
		k := base
		k.bench = "CG"
		seen["bench"] = k.digest()
	}
	{
		k := base
		k.seed = 2
		seen["seed"] = k.digest()
	}
	{
		k := base
		k.instr = 200
		seen["instr"] = k.digest()
	}

	byDigest := map[string][]string{}
	for field, d := range seen { //desclint:allow determinism inverted index; reported sorted below
		byDigest[d] = append(byDigest[d], field)
	}
	for d, fields := range byDigest { //desclint:allow determinism failure reporting only
		if len(fields) > 1 {
			sort.Strings(fields)
			t.Errorf("fields %v share digest %s: canonical() is not covering them", fields, d[:12])
		}
	}
	if !strings.Contains(base.canonical(), "code "+CodeFingerprint+"\n") {
		t.Error("canonical() does not embed CodeFingerprint")
	}
}

// TestRunKeyDigestGolden pins the content address of a few keys byte for
// byte. Every cache directory on disk is filed under these digests, so a
// rewrite of canonical() or digest() that moves one of them orphans every
// existing cache entry; only a deliberate CodeFingerprint bump may change
// them.
func TestRunKeyDigestGolden(t *testing.T) {
	golden := []struct {
		spec   SystemSpec
		bench  string
		seed   int64
		digest string
	}{
		{BinaryBase(), "Art", 1, "f523890febd8cea971c3d6a9277d622d2b051887ed9e8b9c711a2f3635a0ddbd"},
		{BinaryBase(), "CG", 1, "e00984ff95659c38b21d0fd54ee314e775b4a496f009bde2c174a697106b04ae"},
		{DESCZero(), "Art", 1, "389c370a3f7406d7103512b1e3b2ee83cc7ab8b4185f1f526ea1009328371a6c"},
		{DESCZero(), "CG", 1, "ab31978a0b5d88fda346ea15af8375e294f1264ec392deba97b61dd33bb1b2c2"},
		{BinaryBase(), "Art", 7, "c739c4a08e893bcf889a1785cbe4a35e2785a8e137d7395577d8bf1b951ed9da"},
		{BinaryBase(), "CG", 7, "c5e606b36c2f93d4934f8133c2ea64400cb0bd580ea653068d4909e322cecce8"},
		{DESCZero(), "Art", 7, "e3c1b011aaf99f046801442aa55cb16159cde1538c0506623a4e765acdca92b2"},
		{DESCZero(), "CG", 7, "a0e0701d07b856cb6447e4987731fa71fd8547f6c319a738eaf9f46aaaef8757"},
	}
	for _, g := range golden {
		k := runKey{spec: g.spec, bench: g.bench, seed: g.seed, instr: 3_000}
		if got := k.digest(); got != g.digest {
			t.Errorf("%s/%s seed %d: digest %s, want %s", g.spec.Scheme, g.bench, g.seed, got, g.digest)
		}
		if sum := fmt.Sprintf("%x", sha256.Sum256([]byte(k.canonical()))); sum != k.digest() {
			t.Errorf("%s/%s seed %d: digest %s is not the SHA-256 of canonical() (%s)", g.spec.Scheme, g.bench, g.seed, k.digest(), sum)
		}
	}
}

// TestRunKeyDigestAllocs: a digest renders and hashes its key in stack
// buffers; the returned string is its one allocation.
func TestRunKeyDigestAllocs(t *testing.T) {
	k := runKey{spec: DESCZero(), bench: "Water-NSquared", seed: 1, instr: 3_000}
	if n := testing.AllocsPerRun(100, func() { _ = k.digest() }); n > 1 {
		t.Errorf("digest allocates %v times per call, want at most 1", n)
	}
}

// TestShardCountInvariance is the acceptance gate for sharded execution:
// for the full experiment suite's demand plan, executing with 1, 2, and 4
// share-nothing shards (separate cache dirs), merging the shard caches,
// and rendering from the merged cache yields output byte-identical to
// the unsharded run — and the merged render performs zero simulations.
func TestShardCountInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("executes the full demand plan several times; skipped in -short mode")
	}
	opt := tiny()
	var demands []Demand
	for _, e := range All() {
		if e.Demands != nil {
			demands = append(demands, e.Demands(opt)...)
		}
	}

	// renderAll renders every planning experiment from the given runner.
	renderAll := func(t *testing.T, r *Runner) string {
		t.Helper()
		var out strings.Builder
		for _, e := range All() {
			if e.Demands == nil {
				continue
			}
			tabs, err := e.Run(context.Background(), r)
			if err != nil {
				t.Fatal(err)
			}
			for _, tab := range tabs {
				out.WriteString(tab.Markdown())
			}
		}
		return out.String()
	}

	// snapshot maps every cache entry to its exact bytes.
	snapshot := func(t *testing.T, dir string) map[string][]byte {
		t.Helper()
		s := openStore(t, dir)
		keys, err := s.Keys()
		if err != nil {
			t.Fatal(err)
		}
		files := make(map[string][]byte, len(keys))
		for _, k := range keys {
			data, err := os.ReadFile(entryPath(dir, k))
			if err != nil {
				t.Fatal(err)
			}
			files[k] = data
		}
		return files
	}

	// Unsharded baseline.
	baseDir := t.TempDir()
	rBase := mustRunner(opt, DiskCache(openStore(t, baseDir)))
	if err := rBase.Execute(context.Background(), demands); err != nil {
		t.Fatal(err)
	}
	baseOut := renderAll(t, rBase)
	baseFiles := snapshot(t, baseDir)
	if len(baseFiles) == 0 {
		t.Fatal("unsharded run cached no entries")
	}

	for _, n := range []int{2, 4} {
		shardDirs := make([]string, n)
		counts := make([]int, n)
		for i := 0; i < n; i++ {
			shardDirs[i] = t.TempDir()
			obs := newCountingObserver()
			r := mustRunner(opt, Shard(i, n), WithObserver(obs), DiskCache(openStore(t, shardDirs[i])))
			if err := r.Execute(context.Background(), demands); err != nil {
				t.Fatalf("shard %d/%d: %v", i+1, n, err)
			}
			counts[i] = obs.totalStarted()
		}

		// Shards partition the plan: disjoint, exhaustive, near-balanced.
		total := 0
		union := map[string]bool{}
		for i, dir := range shardDirs {
			files := snapshot(t, dir)
			if len(files) != counts[i] {
				t.Errorf("%d-way shard %d cached %d entries but simulated %d runs", n, i+1, len(files), counts[i])
			}
			total += len(files)
			for k := range files { //desclint:allow determinism set union is order-independent
				if union[k] {
					t.Errorf("%d-way sharding assigned key %s to two shards", n, k[:12])
				}
				union[k] = true
			}
		}
		if total != len(baseFiles) {
			t.Errorf("%d shards executed %d unique runs, unsharded executed %d", n, total, len(baseFiles))
		}

		// Merge and render: byte-identical output, zero simulations.
		mergedDir := t.TempDir()
		merged := openStore(t, mergedDir)
		for _, dir := range shardDirs {
			if _, skipped, err := merged.ImportDir(dir); err != nil {
				t.Fatal(err)
			} else if skipped != 0 {
				t.Errorf("merge skipped %d entries from %s", skipped, dir)
			}
		}
		mergedFiles := snapshot(t, mergedDir)
		if len(mergedFiles) != len(baseFiles) {
			t.Fatalf("%d-way merged cache holds %d entries, unsharded %d", n, len(mergedFiles), len(baseFiles))
		}
		for k, want := range baseFiles { //desclint:allow determinism byte-compare assertions are order-independent
			if got, ok := mergedFiles[k]; !ok {
				t.Errorf("%d-way merge is missing key %s", n, k[:12])
			} else if !bytes.Equal(got, want) {
				t.Errorf("%d-way merge entry %s differs from the unsharded bytes", n, k[:12])
			}
		}

		obs := newCountingObserver()
		rMerged := mustRunner(opt, WithObserver(obs), DiskCache(merged))
		if err := rMerged.Execute(context.Background(), demands); err != nil {
			t.Fatal(err)
		}
		if got := obs.totalStarted(); got != 0 {
			t.Errorf("render from %d-way merged cache simulated %d runs, want 0", n, got)
		}
		if out := renderAll(t, rMerged); out != baseOut {
			t.Errorf("%d-way sharded output differs from the unsharded render", n)
		}
	}
}

// TestShardValidation pins the loud-failure contract for bad geometry.
func TestShardValidation(t *testing.T) {
	for _, c := range []struct{ index, count int }{
		{-1, 2}, {2, 2}, {5, 2}, {0, -1}, {1, 0},
	} {
		if _, err := NewRunner(tiny(), Shard(c.index, c.count)); err == nil {
			t.Errorf("NewRunner accepted shard %d/%d", c.index, c.count)
		}
	}
	if _, err := NewRunner(tiny(), Shard(0, 1)); err != nil {
		t.Errorf("NewRunner rejected the unsharded identity: %v", err)
	}
}
