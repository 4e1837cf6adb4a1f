package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(xs, n=4) and statistics.median, the definitions the
// steadiness check is judged by.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs          []float64
		q1, med, q3 float64
	}{
		// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 5.5, 8.25},
		// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
		{[]float64{16, 1, 8, 2, 4}, 1.5, 4, 12},
		// statistics.quantiles([3, 5], n=4) == [2.5, 4.0, 5.5]
		{[]float64{3, 5}, 2.5, 4, 5.5},
	}
	for _, c := range cases {
		q1, med, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(med, c.med) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, med, q3, c.q1, c.med, c.q3)
		}
	}
}

func TestQuantileInterpolates(t *testing.T) {
	xs := []float64{40, 10, 30, 20}
	for _, c := range []struct{ q, want float64 }{{0, 10}, {0.5, 25}, {0.9, 37}, {1, 40}} {
		if got := quantile(append([]float64(nil), xs...), c.q); !near(got, c.want) {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of nothing = %v, want 0", got)
	}
}
