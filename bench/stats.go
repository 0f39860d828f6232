package main

import (
	"math"
	"sort"
	"time"
)

// quartiles returns the first quartile, median and third quartile of xs
// the way Python's statistics.quantiles(xs, n=4) computes them (its
// default "exclusive" method), so compare's spreads match the ones a
// reader recomputes by hand. One value is its own quartiles.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	switch len(s) {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	ld := len(s)
	m := ld + 1
	q := func(i int) float64 {
		j := min(max(i*m/4, 1), ld-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// median is the middle quartile.
func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of ds,
// which it sorts in place.
func percentile(ds []time.Duration, p float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	i := int(math.Ceil(p*float64(len(ds)))) - 1
	if i < 0 {
		i = 0
	}
	return ds[i]
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// us converts a duration to float microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
