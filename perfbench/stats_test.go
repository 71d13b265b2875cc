package main

import (
	"math"
	"testing"
)

func TestPercentileNeedsTenBeyond(t *testing.T) {
	vs := make([]float64, 1000)
	for i := range vs {
		vs[i] = float64(i + 1)
	}
	v, ok := percentile(vs, 0.99)
	if !ok || v != 990 {
		t.Fatalf("p99 of 1..1000 = %v, %v; want 990, true", v, ok)
	}
	// 999 samples leave only 9 beyond the p99 rank.
	if _, ok := percentile(vs[:999], 0.99); ok {
		t.Fatal("p99 of 999 samples reported as supported")
	}
	if v, ok := percentile(vs[:100], 0.9); !ok || v != 90 {
		t.Fatalf("p90 of 1..100 = %v, %v; want 90, true", v, ok)
	}
	if _, ok := percentile(vs[:99], 0.9); ok {
		t.Fatal("p90 of 99 samples reported as supported")
	}
	if v, ok := percentile([]float64{3, 1, 2}, 0.5); ok || v != 2 {
		t.Fatalf("p50 of 3 samples = %v, %v; want 2, false", v, ok)
	}
	if _, err := mustPercentile("x", vs[:50], 0.9); err == nil {
		t.Fatal("mustPercentile accepted a thin tail")
	}
}

func TestPercentileIgnoresOrder(t *testing.T) {
	vs := []float64{5, 3, 9, 1, 7, 2, 8, 4, 6, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20}
	v, _ := percentile(vs, 0.5)
	if v != 10 {
		t.Fatalf("p50 = %v, want 10", v)
	}
	if vs[0] != 5 {
		t.Fatal("percentile reordered its input")
	}
}

// The reference values come from Python 3's statistics.quantiles(vs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		vs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3.1, 1.2, 5.5}, [3]float64{1.2, 3.1, 5.5}},
		{[]float64{2, 1}, [3]float64{0.75, 1.5, 2.25}},
	}
	for _, c := range cases {
		got, err := quartiles(c.vs)
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if math.Abs(got[i]-c.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v, want %v", c.vs, got, c.want)
				break
			}
		}
	}
	if _, err := quartiles([]float64{1}); err == nil {
		t.Fatal("quartiles of one value did not fail")
	}
}

func TestSpread(t *testing.T) {
	s, err := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if err != nil {
		t.Fatal(err)
	}
	if want := (8.25 - 2.75) / 5.5; math.Abs(s-want) > 1e-12 {
		t.Fatalf("spread = %v, want %v", s, want)
	}
	if _, err := spread([]float64{0, 0, 0}); err == nil {
		t.Fatal("spread of a zero median did not fail")
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Fatalf("median = %v, want 2.5", got)
	}
}
