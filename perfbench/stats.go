package main

import (
	"math"
	"sort"
)

// quantile returns the nearest-rank q-quantile of xs (0 < q ≤ 1) and how
// many samples lie strictly beyond its rank. xs is not modified.
func quantile(xs []float64, q float64) (v float64, beyond int) {
	if len(xs) == 0 {
		return math.NaN(), 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	idx := int(math.Ceil(q*float64(len(s)))) - 1
	if idx < 0 {
		idx = 0
	}
	return s[idx], len(s) - idx - 1
}

// median is the 0.5 nearest-rank quantile.
func median(xs []float64) float64 {
	v, _ := quantile(xs, 0.5)
	return v
}

// quartiles returns the first quartile, median and third quartile the
// way Python's statistics.quantiles(xs, n=4) computes them (the
// "exclusive" method), so spreads printed here match that rule.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		// Line for line the exclusive method of CPython's statistics
		// module, including its clamping (and extrapolation) at the ends.
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(2), at(3)
}

func maxOf(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}

func meanOf(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}
