package main

import (
	"math"
	"math/rand"
	"testing"
)

func TestSummarizeKnownDistribution(t *testing.T) {
	// 1..1000 shuffled: the interpolated quantiles are known exactly.
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	rand.New(rand.NewSource(1)).Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	s := summarize(xs)
	if s.N != 1000 || s.P50 != 500.5 || s.Max != 1000 || s.Mean != 500.5 {
		t.Fatalf("summary %+v", s)
	}
	if math.Abs(s.P99-990.01) > 1e-9 {
		t.Fatalf("p99 = %v, want 990.01", s.P99)
	}
	// 1000 samples leave exactly ten beyond the 99th percentile.
	if s.TailQ != 0.99 {
		t.Fatalf("tail quantile = %v, want 0.99", s.TailQ)
	}
	beyond := 0
	for _, v := range xs {
		if v > s.Tail {
			beyond++
		}
	}
	if beyond != tailMargin {
		t.Fatalf("%d samples beyond the tail percentile, want %d", beyond, tailMargin)
	}
}

func TestTailQuantileSmallSets(t *testing.T) {
	if q := tailQuantile(10); q != 0 {
		t.Fatalf("10 samples: tail quantile %v, want 0 (none has ten beyond)", q)
	}
	if q := tailQuantile(100); math.Abs(q-0.9) > 1e-12 {
		t.Fatalf("100 samples: tail quantile %v, want 0.9", q)
	}
	if s := summarize(nil); s.N != 0 {
		t.Fatalf("empty summary %+v", s)
	}
	if q := quantile([]float64{7}, 0.99); q != 7 {
		t.Fatalf("single sample quantile %v", q)
	}
}

func TestMedianKeepsOrder(t *testing.T) {
	xs := []float64{3, 1, 2, 10}
	if m := median(xs); m != 2.5 {
		t.Fatalf("median %v", m)
	}
	if xs[0] != 3 || xs[3] != 10 {
		t.Fatalf("median reordered its input: %v", xs)
	}
}
