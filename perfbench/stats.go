package main

import (
	"sort"
	"time"
)

// quantile returns the q-quantile of vals by linear interpolation between
// the closest ranks (0 for an empty slice). vals is sorted in place.
func quantile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sort.Float64s(vals)
	pos := q * float64(len(vals)-1)
	lo := int(pos)
	if lo+1 >= len(vals) {
		return vals[len(vals)-1]
	}
	frac := pos - float64(lo)
	return vals[lo]*(1-frac) + vals[lo+1]*frac
}

// median is quantile(vals, 0.5) on a copy, leaving vals untouched.
func median(vals []float64) float64 {
	return quantile(append([]float64(nil), vals...), 0.5)
}

func mean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	var s float64
	for _, v := range vals {
		s += v
	}
	return s / float64(len(vals))
}

// ratio is a/b, or 0 when b is 0 (a metric over an empty denominator).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
