package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a percentile before the
// benchmark reports it: a p99 needs at least 1000 samples, a p90 100.
const minBeyond = 10

// sorted returns an ascending copy of vs.
func sorted(vs []float64) []float64 {
	out := append([]float64(nil), vs...)
	sort.Float64s(out)
	return out
}

// percentile returns the nearest-rank q-quantile of vs (0 < q < 1): the
// smallest sample with at least q·n samples at or below it. ok is false
// when fewer than minBeyond samples lie beyond that rank, which is when
// the percentile says more about one sample than about the system.
func percentile(vs []float64, q float64) (v float64, ok bool) {
	n := len(vs)
	if n == 0 || q <= 0 || q >= 1 {
		return 0, false
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	s := sorted(vs)
	return s[rank-1], n-rank >= minBeyond
}

// mustPercentile is percentile for the metrics a workload is sized to
// support; a shortfall is a benchmark error, never a silently thin tail.
func mustPercentile(name string, vs []float64, q float64) (float64, error) {
	v, ok := percentile(vs, q)
	if !ok {
		return 0, fmt.Errorf("%s: p%g needs %d samples beyond it, have %d samples in all",
			name, 100*q, minBeyond, len(vs))
	}
	return v, nil
}

// median returns the middle of vs (mean of the two middles for even n),
// as Python's statistics.median does.
func median(vs []float64) float64 {
	n := len(vs)
	if n == 0 {
		return 0
	}
	s := sorted(vs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean returns the arithmetic mean of vs (0 when empty).
func mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	var sum float64
	for _, v := range vs {
		sum += v
	}
	return sum / float64(len(vs))
}

// quartiles returns Q1, Q2 and Q3 of vs with the "exclusive" method of
// Python's statistics.quantiles(vs, n=4), including its extrapolation
// for very small samples. It needs at least two values.
func quartiles(vs []float64) (q [3]float64, err error) {
	n := len(vs)
	if n < 2 {
		return q, fmt.Errorf("quartiles need at least 2 values, have %d", n)
	}
	s := sorted(vs)
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q, nil
}

// spread is the run-to-run steadiness of a metric: the distance between
// its first and third quartile as a share of its median.
func spread(vs []float64) (float64, error) {
	q, err := quartiles(vs)
	if err != nil {
		return 0, err
	}
	med := median(vs)
	if med == 0 {
		return 0, fmt.Errorf("spread of a zero median is undefined")
	}
	return (q[2] - q[0]) / math.Abs(med), nil
}
