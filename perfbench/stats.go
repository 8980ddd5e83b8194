package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between closest ranks; NaN for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailPercentiles are the percentiles tail reports, highest first.
var tailPercentiles = []float64{99.9, 99, 90, 75, 50}

// Tail is the highest percentile of a sample that still has at least ten
// samples beyond it, with the sample count it was taken over. A
// percentile with fewer samples beyond it is one or two outliers, not a
// tail, so it is not reported.
type Tail struct {
	Pct   float64 // the percentile, e.g. 90; 0 when no percentile qualifies
	Value float64
	N     int
}

// tail picks the highest of tailPercentiles with ≥ 10 samples above it.
// With fewer than 20 samples no percentile qualifies and Pct is 0.
func tail(xs []float64) Tail {
	t := Tail{N: len(xs)}
	for _, p := range tailPercentiles {
		if float64(len(xs))*(1-p/100) >= 10-1e-9 {
			t.Pct, t.Value = p, quantile(xs, p/100)
			return t
		}
	}
	return t
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

// ratio is a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
