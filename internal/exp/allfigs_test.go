package exp

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"desc/internal/stats"
)

// renderDigests pins one experiment's rendered tables: Tiny is the
// SHA-256 of the markdown and CSV at tiny() scale, Plan the same of the
// full-mode render on a planning Runner, where every run reads the
// stand-in result. Plan pins the full sweeps' rows, columns and cell
// formats without simulating them. Both hash the printed text, so a
// last-bit difference in a value that prints the same does not move them.
type renderDigests struct {
	Tiny string `json:"tiny"`
	Plan string `json:"plan"`
}

// digestTables hashes the markdown and CSV renderings of tables.
func digestTables(tables []*stats.Table) string {
	h := sha256.New()
	for _, tab := range tables {
		_ = tab.WriteMarkdown(h)
		_ = tab.WriteCSV(h)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestAllExperimentsRun executes every registered experiment at the
// smallest useful scale and checks structural invariants: at least one
// table, a title, headers, and rows. This is the integration test that
// guarantees `descbench` cannot hit a broken experiment. It also holds
// every experiment's rendered text to testdata/render_digests.json;
// regenerate that only for an intended change of some table, with
//
//	go test -run 'TestAllExperimentsRun|TestDemandPlansGolden' ./internal/exp -update-plans
func TestAllExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment; skipped in -short mode")
	}
	r := testRunner()
	got := map[string]renderDigests{}
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			tables, err := r.Run(context.Background(), e)
			if err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			plan, err := e.Run(context.Background(), &Runner{opt: Options{}.WithDefaults(), planning: true})
			if err != nil {
				t.Fatalf("%s full-mode planning render: %v", e.ID, err)
			}
			got[e.ID] = renderDigests{Tiny: digestTables(tables), Plan: digestTables(plan)}
			if len(tables) == 0 {
				t.Fatalf("%s produced no tables", e.ID)
			}
			for _, tab := range tables {
				if tab.Title == "" {
					t.Errorf("%s: untitled table", e.ID)
				}
				if len(tab.Columns) < 2 {
					t.Errorf("%s: table %q has %d columns", e.ID, tab.Title, len(tab.Columns))
				}
				if tab.NumRows() == 0 {
					t.Errorf("%s: table %q is empty", e.ID, tab.Title)
				}
				md := tab.Markdown()
				if !strings.Contains(md, "|") {
					t.Errorf("%s: markdown rendering broken", e.ID)
				}
			}
			if !strings.HasPrefix(e.Title, "Figure") && !strings.HasPrefix(e.Title, "Table") {
				t.Errorf("%s: title %q does not name a paper figure or table", e.ID, e.Title)
			}
		})
	}
	checkRenderDigests(t, got)
}

// checkRenderDigests compares got with testdata/render_digests.json, or
// rewrites the file under -update-plans when every experiment rendered.
func checkRenderDigests(t *testing.T, got map[string]renderDigests) {
	t.Helper()
	path := filepath.Join("testdata", "render_digests.json")
	if *updatePlans {
		if len(got) != len(All()) {
			t.Fatalf("rendered %d of %d experiments; regenerate %s from a full run", len(got), len(All()), path)
		}
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
		t.Fatalf("%v (generate with: go test -run TestAllExperimentsRun ./internal/exp -update-plans)", err)
	}
	var want map[string]renderDigests
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	for _, e := range All() {
		g, ok := got[e.ID]
		if !ok {
			continue // filtered out or failed above
		}
		if w := want[e.ID]; g.Tiny != w.Tiny {
			t.Errorf("%s: tiny-scale render digest %s, golden %s", e.ID, g.Tiny, w.Tiny)
		}
		if w := want[e.ID]; g.Plan != w.Plan {
			t.Errorf("%s: full-mode planning render digest %s, golden %s", e.ID, g.Plan, w.Plan)
		}
	}
	for id := range want { //desclint:allow determinism failure reporting only
		if _, ok := ByID(id); !ok {
			t.Errorf("%s: golden render digest for an unregistered experiment", id)
		}
	}
}

// TestExperimentOrder: All returns experiments sorted by id so descbench
// output follows the paper.
func TestExperimentOrder(t *testing.T) {
	all := All()
	for i := 1; i < len(all); i++ {
		if all[i-1].ID >= all[i].ID {
			t.Fatalf("experiments out of order: %s before %s", all[i-1].ID, all[i].ID)
		}
	}
}
