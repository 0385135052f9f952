package desc

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"desc/internal/exp"
)

// TestCommittedResultsNonSimulating renders every experiment that
// simulates nothing (Demands == nil: the tables, the codec and circuit
// figures, the wire and SRAM models) at the default options and compares
// each CSV byte for byte with the committed results/<id>.csv. These
// renders read the Table 1 machine constants and the wire, SRAM and
// H-tree models directly, so the pin catches any drift in them even
// where no simulation result would move.
func TestCommittedResultsNonSimulating(t *testing.T) {
	r, err := exp.NewRunner(exp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, e := range exp.All() {
		if e.Demands != nil {
			continue
		}
		n++
		tables, err := r.Run(context.Background(), e)
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		for i, tab := range tables {
			// Multi-table experiments are written as <id>_<i>.csv, as
			// descbench does.
			name := e.ID
			if len(tables) > 1 {
				name = fmt.Sprintf("%s_%d", e.ID, i)
			}
			var got bytes.Buffer
			if err := tab.WriteCSV(&got); err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(filepath.Join("results", name+".csv"))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Errorf("%s differs from results/%s.csv:\n got:\n%s\nwant:\n%s", e.ID, name, got.Bytes(), want)
			}
		}
	}
	if n == 0 {
		t.Fatal("no experiment without simulation demands")
	}
}
