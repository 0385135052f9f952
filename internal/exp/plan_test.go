package exp

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// updatePlans regenerates the experiment goldens: testdata/demand_plans.json
// (TestDemandPlansGolden) and testdata/render_digests.json
// (TestAllExperimentsRun). Pass it after the package path, and only for an
// intended change of some experiment's runs or tables:
//
//	go test -run 'TestDemandPlansGolden|TestAllExperimentsRun' ./internal/exp -update-plans
var updatePlans = flag.Bool("update-plans", false, "regenerate the experiment goldens in testdata/")

// planDigest summarizes one demand set: how many distinct runs it names
// and the SHA-256 of their sorted canonical cache keys.
type planDigest struct {
	Count  int    `json:"count"`
	SHA256 string `json:"sha256"`
}

func digestPlan(opt Options, demands []Demand) planDigest {
	opt = opt.WithDefaults()
	seen := map[string]bool{}
	var keys []string
	for _, d := range demands {
		k := runKey{spec: d.Spec, bench: d.Bench, seed: opt.Seed, instr: opt.InstrPerContext}.canonical()
		if !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	sum := sha256.Sum256([]byte(strings.Join(keys, "")))
	return planDigest{Count: len(keys), SHA256: hex.EncodeToString(sum[:])}
}

// TestDemandPlansGolden pins the set of distinct runs every planning
// experiment demands, in Quick and in full mode, so a change to how the
// demand sets are built cannot silently add, drop or alter a run.
func TestDemandPlansGolden(t *testing.T) {
	modes := []struct {
		name string
		opt  Options
	}{{"quick", Options{Quick: true}}, {"full", Options{}}}
	got := map[string]map[string]planDigest{}
	for _, e := range All() {
		if e.Demands == nil {
			continue
		}
		got[e.ID] = map[string]planDigest{}
		for _, m := range modes {
			got[e.ID][m.name] = digestPlan(m.opt, e.Demands(m.opt.WithDefaults()))
		}
	}
	path := filepath.Join("testdata", "demand_plans.json")
	if *updatePlans {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (generate with: go test -run TestDemandPlansGolden ./internal/exp -update-plans)", err)
	}
	var want map[string]map[string]planDigest
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	for _, e := range All() {
		for _, m := range modes {
			if g, w := got[e.ID][m.name], want[e.ID][m.name]; g != w {
				t.Errorf("%s %s: demand plan %+v, golden %+v", e.ID, m.name, g, w)
			}
		}
	}
	for id := range want { //desclint:allow determinism failure reporting only
		if got[id] == nil {
			t.Errorf("%s: golden plan for an experiment with no demands", id)
		}
	}
}
