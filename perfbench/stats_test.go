package main

import (
	"math"
	"testing"
	"time"
)

func TestQuantileInterpolates(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3} // unsorted on purpose
	cases := []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5}, {0.1, 1.4}, {0.99, 4.96},
	}
	for _, c := range cases {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Errorf("quantile reordered its input: %v", xs)
	}
}

func TestQuantileEdgeCases(t *testing.T) {
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of no samples should be NaN")
	}
	if got := quantile([]float64{7}, 0.99); got != 7 {
		t.Errorf("single sample p99 = %v, want 7", got)
	}
	if got := quantile([]float64{1, math.Inf(1)}, 0.99); !math.IsInf(got, 1) {
		t.Errorf("a failed request (+Inf) must dominate the tail, got %v", got)
	}
	if got := median([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := mean([]float64{1, 2, 6}); got != 3 {
		t.Errorf("mean = %v, want 3", got)
	}
}

func TestWindowedQuantileIgnoresOneNoisyWindow(t *testing.T) {
	var xs []float64
	for w := 0; w < 4; w++ {
		for i := 0; i < 100; i++ {
			v := float64(i % 10) // p99 of a quiet window is 9
			if w == 2 && i >= 90 {
				v = 500 // a burst of host noise in one window
			}
			xs = append(xs, v)
		}
	}
	if got := quantile(xs, 0.99); got != 500 {
		t.Fatalf("whole-phase p99 = %v, want the burst (500)", got)
	}
	if got := windowedQuantile(xs, 4, 0.99); got != 9 {
		t.Errorf("windowed p99 = %v, want 9", got)
	}
	if got := windowedQuantile([]float64{1, 2}, 4, 0.5); got != 1.5 {
		t.Errorf("fewer samples than windows falls back to the plain quantile, got %v", got)
	}
}

func TestMedianDuration(t *testing.T) {
	durs := []time.Duration{3 * time.Millisecond, 0, time.Millisecond}
	got := medianDuration(len(durs), func(i int) { time.Sleep(durs[i]) })
	if got < time.Millisecond || got > 3*time.Millisecond {
		t.Errorf("median of ~{3ms, 0, 1ms} sleeps = %v, want about 1ms", got)
	}
}
