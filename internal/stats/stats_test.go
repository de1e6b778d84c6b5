package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*(1+math.Abs(a)+math.Abs(b))
}

func TestStreamBasics(t *testing.T) {
	var s Stream
	if s.N() != 0 || s.Mean() != 0 || s.Variance() != 0 {
		t.Fatal("empty stream not zeroed")
	}
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(x)
	}
	if s.N() != 8 {
		t.Fatalf("N = %d", s.N())
	}
	if !almostEqual(s.Mean(), 5) {
		t.Fatalf("Mean = %v", s.Mean())
	}
	if !almostEqual(s.Variance(), 32.0/7.0) {
		t.Fatalf("Variance = %v", s.Variance())
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Fatalf("min/max = %v/%v", s.Min(), s.Max())
	}
	sum := s.Summarize()
	if sum.N != 8 || !almostEqual(sum.Mean, 5) {
		t.Fatalf("summary = %+v", sum)
	}
	if sum.String() == "" {
		t.Fatal("empty String()")
	}
}

// Property: Welford must agree with the naive two-pass computation.
func TestStreamMatchesNaiveProperty(t *testing.T) {
	f := func(xs []float64) bool {
		clean := xs[:0]
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e9 {
				clean = append(clean, x)
			}
		}
		if len(clean) < 2 {
			return true
		}
		var s Stream
		var sum float64
		for _, x := range clean {
			s.Add(x)
			sum += x
		}
		mean := sum / float64(len(clean))
		var m2 float64
		for _, x := range clean {
			m2 += (x - mean) * (x - mean)
		}
		naiveVar := m2 / float64(len(clean)-1)
		scale := 1 + math.Abs(mean) + naiveVar
		return math.Abs(s.Mean()-mean) < 1e-6*scale && math.Abs(s.Variance()-naiveVar) < 1e-6*scale
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestRelStddev(t *testing.T) {
	var s Stream
	s.Add(10)
	s.Add(10)
	if s.RelStddev() != 0 {
		t.Fatalf("RelStddev of constant = %v", s.RelStddev())
	}
	var z Stream
	z.Add(0)
	z.Add(0)
	if z.RelStddev() != 0 {
		t.Fatal("RelStddev with zero mean should be 0")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	cases := []struct{ p, want float64 }{
		{0, 1}, {100, 10}, {50, 5.5}, {25, 3.25}, {90, 9.1},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); !almostEqual(got, c.want) {
			t.Errorf("P%v = %v, want %v", c.p, got, c.want)
		}
	}
	if Percentile(nil, 50) != 0 {
		t.Error("empty percentile != 0")
	}
	// Input must not be mutated (copy-sort).
	ys := []float64{3, 1, 2}
	Percentile(ys, 50)
	if ys[0] != 3 || ys[1] != 1 || ys[2] != 2 {
		t.Error("Percentile mutated its input")
	}
}

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("Mean(nil) != 0")
	}
	if !almostEqual(Mean([]float64{1, 2, 3}), 2) {
		t.Error("Mean([1 2 3]) != 2")
	}
}
