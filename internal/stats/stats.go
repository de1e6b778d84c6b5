// Package stats provides the statistics used by the benchmark
// harness: streaming mean/variance (Welford), min/max and percentiles.
// (Latency histograms are obs.LatencyHist.) The paper reports the
// average of 10 runs (Section V-A); Summary carries everything needed
// to do the same and to report dispersion alongside.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Stream accumulates observations with Welford's online algorithm.
type Stream struct {
	n        int
	mean, m2 float64
	min, max float64
}

// Add records one observation.
func (s *Stream) Add(x float64) {
	if s.n == 0 {
		s.min, s.max = x, x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	s.n++
	d := x - s.mean
	s.mean += d / float64(s.n)
	s.m2 += d * (x - s.mean)
}

// N returns the number of observations.
func (s *Stream) N() int { return s.n }

// Mean returns the arithmetic mean (0 when empty).
func (s *Stream) Mean() float64 { return s.mean }

// Min returns the smallest observation (0 when empty).
func (s *Stream) Min() float64 { return s.min }

// Max returns the largest observation (0 when empty).
func (s *Stream) Max() float64 { return s.max }

// Variance returns the unbiased sample variance (0 for n < 2).
func (s *Stream) Variance() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n-1)
}

// Stddev returns the sample standard deviation.
func (s *Stream) Stddev() float64 { return math.Sqrt(s.Variance()) }

// RelStddev returns stddev/mean (0 when the mean is 0).
func (s *Stream) RelStddev() float64 {
	if s.mean == 0 {
		return 0
	}
	return s.Stddev() / s.mean
}

// Summary is a frozen view of a Stream.
type Summary struct {
	N            int
	Mean, Stddev float64
	Min, Max     float64
}

// Summarize freezes the stream.
func (s *Stream) Summarize() Summary {
	return Summary{N: s.n, Mean: s.mean, Stddev: s.Stddev(), Min: s.min, Max: s.max}
}

// String formats the summary compactly.
func (s Summary) String() string {
	return fmt.Sprintf("mean=%.4g sd=%.2g min=%.4g max=%.4g n=%d", s.Mean, s.Stddev, s.Min, s.Max, s.N)
}

// Percentile returns the p-th percentile (0 <= p <= 100) of xs using
// linear interpolation; xs need not be sorted (a copy is sorted).
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	if p <= 0 {
		return c[0]
	}
	if p >= 100 {
		return c[len(c)-1]
	}
	rank := p / 100 * float64(len(c)-1)
	lo := int(rank)
	frac := rank - float64(lo)
	if lo+1 >= len(c) {
		return c[len(c)-1]
	}
	return c[lo]*(1-frac) + c[lo+1]*frac
}

// Mean returns the arithmetic mean of xs (0 when empty).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
