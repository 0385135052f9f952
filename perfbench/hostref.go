package main

import (
	"compress/flate"
	"io"
	"math/bits"
	"math/rand"
	"sort"
	"time"
)

// The host this benchmark runs on is a shared VM whose speed drifts by
// up to 40% over seconds to minutes: other tenants contend for the
// cores' shared resources. Every op of a run slows together in such a
// phase, so an untraced run measures the host's speed alongside the
// program, with a fixed reference kernel that shares no code with the
// repository, and scales each end-to-end timing to a host on which that
// kernel takes refKernelMS. A change to the program moves the scaled
// figures exactly as it moves the raw ones; a change of host speed moves
// the kernel too and largely cancels out. The report lines give the raw
// figures as well.
//
// The slow phases do not slow all code alike, so the kernel has two
// halves of about equal time. One is the standard library's DEFLATE
// compressor on 128 KiB of fixed input: branchy code over a few hundred
// kilobytes, which tracks the simulator and the run cache. The other is
// eight independent chains of integer multiplies, shifts and bit counts:
// many operations per cycle, which tracks the codecs behind serve-encode
// (their speed halved in some phases). On the 2-core reference VM, one
// process interleaved ops of three workloads with both halves for four
// and a half minutes. The medians of 12-second windows of ops spread
// 45% (serve-encode), 32% (sim-design-point) and 33% (sweep-warm) raw;
// scaled by the whole kernel, 13%, 4% and 6%. Scaled by DEFLATE alone
// they spread 24%, 14% and 14%, and by the integer chains alone 5%, 15%
// and 14%.

// refKernelMS is the kernel's median time on the reference VM over the
// span above; scaled timings read as if measured on that host.
const refKernelMS = 16.0

// The kernel is sampled in bursts of refBurst after each set-up and
// after the last step, and between steps in bursts of one sample per
// refEvery since the last (at most refBurst), so the samples spread over
// the measured phase as its ops do. The slow phases last seconds, so
// each step and each set-up is scaled by the bursts just before and just
// after it rather than by one factor per run: over the span above that
// kept the window medians at 10% (serve-encode), 3% (sim-design-point)
// and 4% (sweep-warm), where one factor per window left 13%, 4% and 6%.
const (
	refEvery = 500 * time.Millisecond
	refBurst = 4
)

// hostRef holds the kernel's input, its reused compressor and its
// samples: under 1 MB, allocated once.
type hostRef struct {
	input   []byte
	fw      *flate.Writer
	samples []float64     // every kernel wall time, ms
	bursts  []kernelBurst // in time order
	last    time.Time
}

// kernelBurst is one burst of samples: when it ended and their median.
type kernelBurst struct {
	at time.Time
	ms float64
}

func newHostRef() *hostRef {
	r := rand.New(rand.NewSource(1))
	in := make([]byte, 128<<10)
	for i := range in {
		in[i] = byte('a' + r.Intn(8))
	}
	fw, _ := flate.NewWriter(io.Discard, flate.DefaultCompression)
	return &hostRef{input: in, fw: fw}
}

// sample runs the kernel once and returns its wall time in ms.
func (h *hostRef) sample() float64 {
	t := time.Now()
	h.fw.Reset(io.Discard)
	_, _ = h.fw.Write(h.input)
	_ = h.fw.Close()
	refSink += integerChains()
	return ms(time.Since(t))
}

// burst samples the kernel n times.
func (h *hostRef) burst(n int) {
	var b []float64
	for i := 0; i < n; i++ {
		b = append(b, h.sample())
	}
	h.samples = append(h.samples, b...)
	h.last = time.Now()
	h.bursts = append(h.bursts, kernelBurst{at: h.last, ms: median(b)})
}

// mark takes a full burst: after each set-up, so each set-up and the
// first step have a burst on either side, and after the last step.
func (h *hostRef) mark() { h.burst(refBurst) }

// due takes a burst of one sample per refEvery since the last one.
func (h *hostRef) due() {
	if n := int(time.Since(h.last) / refEvery); n > 0 {
		h.burst(min(n, refBurst))
	}
}

// scaleAt is the factor that turns the times of a step or set-up that
// ended at end into times on the reference host: refKernelMS over the
// mean of the bursts either side of it (the first set-up has only the
// one after it).
func (h *hostRef) scaleAt(end time.Time) float64 {
	i := sort.Search(len(h.bursts), func(i int) bool { return h.bursts[i].at.After(end) })
	switch {
	case i == len(h.bursts):
		return refKernelMS / h.bursts[i-1].ms
	case i == 0:
		return refKernelMS / h.bursts[0].ms
	}
	return refKernelMS / ((h.bursts[i-1].ms + h.bursts[i].ms) / 2)
}

// refSink keeps the integer chains' result alive.
var refSink uint64

// integerChains runs eight independent chains of dependent integer
// operations, so a core can issue several per cycle.
func integerChains() uint64 {
	var a, b, c, d, e, f, g, h uint64 = 1, 2, 3, 4, 5, 6, 7, 8
	for i := 0; i < 1_500_000; i++ {
		a = a*0x9E3779B97F4A7C15 + uint64(bits.OnesCount64(b))
		b = b ^ (c >> 7) + 13
		c = c*0xBF58476D1CE4E5B9 + uint64(bits.TrailingZeros64(d|1))
		d = d ^ (e << 9) + 7
		e = e*0x94D049BB133111EB + uint64(bits.OnesCount64(f))
		f = f ^ (g >> 5) + 3
		g = g*0x2545F4914F6CDD1D + uint64(bits.LeadingZeros64(h|1))
		h = h ^ (a << 3) + 11
	}
	return a + b + c + d + e + f + g + h
}
