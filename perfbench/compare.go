package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// compareMain diffs two sets of runs metric by metric (per layer, when
// given traced outputs). Each file is a trace file or a saved standard
// output whose last line is the result object. A delta is "unchanged"
// only when every run of both sets reads the same value (the exact
// counts); a delta no larger than the spread between the A runs' own
// quartiles is "unresolved"; otherwise it is "better" or "worse" by the
// metric's direction.
func compareMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	a := fs.String("a", "", "comma-separated result files of the baseline")
	b := fs.String("b", "", "comma-separated result files of the change")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *a == "" || *b == "" {
		fmt.Fprintln(stderr, "perfbench compare: need -a and -b")
		return 2
	}
	as, err := loadRuns(strings.Split(*a, ","))
	if err == nil {
		var bs []map[string]metric
		if bs, err = loadRuns(strings.Split(*b, ",")); err == nil {
			for _, row := range compareRuns(as, bs) {
				fmt.Fprintln(stdout, row)
			}
			return 0
		}
	}
	fmt.Fprintf(stderr, "perfbench compare: %v\n", err)
	return 1
}

// loadRuns reads the metrics object of each file.
func loadRuns(paths []string) ([]map[string]metric, error) {
	var out []map[string]metric
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var doc struct {
			Metrics map[string]metric `json:"metrics"`
		}
		if err := json.Unmarshal(data, &doc); err != nil {
			lines := bytes.Split(bytes.TrimSpace(data), []byte("\n"))
			if err := json.Unmarshal(lines[len(lines)-1], &doc); err != nil {
				return nil, fmt.Errorf("%s: no result object: %w", p, err)
			}
		}
		if len(doc.Metrics) == 0 {
			return nil, fmt.Errorf("%s: no metrics", p)
		}
		out = append(out, doc.Metrics)
	}
	return out, nil
}

// lowerIsBetter reports the direction of a metric from its name and
// unit: rates, ratios, coverage and hit counts read better higher.
func lowerIsBetter(name, unit string) bool {
	switch {
	case unit == "1/s", unit == "ratio" && name != "cachesim.mshr_merge_ratio",
		strings.HasSuffix(name, "disk_hits"):
		return false
	}
	return true
}

// compareRuns returns one line per metric present in both sets.
func compareRuns(as, bs []map[string]metric) []string {
	names := map[string]bool{}
	for n := range as[0] {
		names[n] = true
	}
	var sorted []string
	for n := range names {
		if _, ok := bs[0][n]; ok {
			sorted = append(sorted, n)
		}
	}
	sort.Strings(sorted)
	rows := []string{fmt.Sprintf("%-44s %14s %14s %9s  %s", "metric", "A median", "B median", "delta", "verdict")}
	for _, n := range sorted {
		av, bv := values(as, n), values(bs, n)
		ma, mb := median(av), median(bv)
		spread := iqr(av)
		delta := mb - ma
		var verdict string
		switch {
		case allEqual(av, ma) && allEqual(bv, ma):
			verdict = "unchanged"
		case math.Abs(delta) <= spread || len(av) < 2:
			verdict = fmt.Sprintf("unresolved (spread %.4g)", spread)
		case (delta < 0) == lowerIsBetter(n, as[0][n].Unit):
			verdict = "better"
		default:
			verdict = "worse"
		}
		rel := ""
		if ma != 0 {
			rel = fmt.Sprintf("%+.1f%%", 100*delta/math.Abs(ma))
		}
		rows = append(rows, fmt.Sprintf("%-44s %14.6g %14.6g %9s  %s", n, ma, mb, rel, verdict))
	}
	return rows
}

func values(runs []map[string]metric, name string) []float64 {
	var out []float64
	for _, r := range runs {
		if m, ok := r[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

func allEqual(xs []float64, v float64) bool {
	for _, x := range xs {
		if x != v {
			return false
		}
	}
	return true
}

// iqr is the distance between the first and third quartiles.
func iqr(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	return quantile(xs, 0.75) - quantile(xs, 0.25)
}

// quantile interpolates the p-quantile of xs with the exclusive method
// of Python's statistics.quantiles, the one the benchmark's spreads are
// judged by.
func quantile(xs []float64, p float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)+1)
	j := int(math.Floor(pos))
	switch {
	case j < 1:
		return s[0]
	case j >= len(s):
		return s[len(s)-1]
	}
	return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
}
