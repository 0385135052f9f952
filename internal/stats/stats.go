// Package stats provides the small statistical toolkit used by the
// experiment harness: running means, geometric means, histograms, and
// fixed-point helpers for reporting normalized results the way the paper
// does (per-benchmark bars plus a geometric-mean summary).
package stats

import (
	"fmt"
	"math"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// GeoMean returns the geometric mean of xs. All values must be positive;
// non-positive values are skipped (matching how the paper's geomean bars
// treat missing data). Returns 0 if no positive values are present.
// Callers that would rather surface a nonpositive value than silently
// average around it should use GeoMeanStrict.
func GeoMean(xs []float64) float64 {
	s, n := 0.0, 0
	for _, x := range xs {
		if x > 0 {
			s += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(s / float64(n))
}

// GeoMeanStrict returns the geometric mean of xs, erroring on empty input
// and on any nonpositive value instead of skipping it: a zero or negative
// normalized metric is a simulation bug, and dropping it from the mean
// would hide that bug behind a plausible-looking summary.
func GeoMeanStrict(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, fmt.Errorf("stats: geomean of empty input")
	}
	s := 0.0
	for i, x := range xs {
		if x <= 0 || math.IsNaN(x) {
			return 0, fmt.Errorf("stats: geomean input %d is %g; every value must be positive", i, x)
		}
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs))), nil
}

// Sum returns the sum of xs.
func Sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// Histogram is a fixed-bin counter over small non-negative integer values,
// e.g. the distribution of 4-bit chunk values in Figure 12.
type Histogram struct {
	counts []uint64
	total  uint64
}

// NewHistogram returns a histogram with bins [0, n).
func NewHistogram(n int) *Histogram {
	return &Histogram{counts: make([]uint64, n)}
}

// Add increments the bin for v. Values outside [0, bins) are clamped to the
// last bin.
func (h *Histogram) Add(v int) {
	if v < 0 {
		v = 0
	}
	if v >= len(h.counts) {
		v = len(h.counts) - 1
	}
	h.counts[v]++
	h.total++
}

// Count returns the count in bin v.
func (h *Histogram) Count(v int) uint64 {
	if v < 0 || v >= len(h.counts) {
		return 0
	}
	return h.counts[v]
}

// Total returns the total number of samples.
func (h *Histogram) Total() uint64 { return h.total }

// Frac returns the fraction of samples in bin v (0 if empty).
func (h *Histogram) Frac(v int) float64 {
	if h.total == 0 {
		return 0
	}
	return float64(h.Count(v)) / float64(h.total)
}

// Mean returns the mean bin value weighted by counts.
func (h *Histogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	s := 0.0
	for v, c := range h.counts {
		s += float64(v) * float64(c)
	}
	return s / float64(h.total)
}

// Merge adds the counts of other into h. The histograms must have the same
// number of bins.
func (h *Histogram) Merge(other *Histogram) {
	if len(h.counts) != len(other.counts) {
		panic(fmt.Sprintf("stats: merging histograms with %d and %d bins", len(h.counts), len(other.counts)))
	}
	for i, c := range other.counts {
		h.counts[i] += c
	}
	h.total += other.total
}
