package main

import (
	"math"
	"testing"
	"time"
)

// TestSpeedometerWindows checks that a window's speed is the mean of the
// probes inside it, that a window without probes takes the probe nearest
// its end, and that a nil speedometer leaves times unscaled.
func TestSpeedometerWindows(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	s := &speedometer{
		at:     []time.Time{at(0), at(10), at(20), at(30), at(100)},
		speeds: []float64{1.0, 0.5, 0.6, 0.7, 0.9},
	}
	for _, c := range []struct {
		from, to int
		want     float64
	}{
		{5, 35, 0.6},  // probes at 10, 20, 30
		{0, 0, 1.0},   // the probe at 0 lies inside [0, 0]
		{40, 60, 0.7}, // empty: nearest to 60 is the probe at 30
		{70, 90, 0.9}, // empty: nearest to 90 is the probe at 100
		{0, 200, 0.74},
	} {
		if got := s.speed(at(c.from), at(c.to)); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("speed(%d ms, %d ms) = %v, want %v", c.from, c.to, got, c.want)
		}
	}
	var none *speedometer
	if got := none.speed(at(0), at(10)); got != 1 {
		t.Errorf("nil speedometer speed = %v, want 1", got)
	}
	none.stop()
}

// TestUnitTimesScaling checks that each dissemination's time is scaled by
// the probe that follows it, and that without a kernel the scaled times
// are the raw ones.
func TestUnitTimesScaling(t *testing.T) {
	var u unitTimes
	u.startBatch()
	for i := 0; i < 3; i++ {
		u.unit("m")
	}
	u.deliveries = 3
	u.endBatch()
	if len(u.scaled) != 3 || len(u.speeds) != 0 {
		t.Fatalf("unprobed: %d scaled times, %d probes; want 3 and 0", len(u.scaled), len(u.speeds))
	}
	for i := range u.ms {
		if u.scaled[i] != u.ms[i] {
			t.Errorf("unprobed dissemination %d: scaled %v, raw %v", i, u.scaled[i], u.ms[i])
		}
	}

	p := unitTimes{ref: newRefKernel(), probeEvery: 2}
	p.startBatch()
	for i := 0; i < 5; i++ {
		p.unit("m")
	}
	p.deliveries = 5
	p.endBatch()
	// Two full groups of two, then the batch end probes the fifth.
	if len(p.speeds) != 3 || len(p.scaled) != 5 {
		t.Fatalf("probed: %d probes, %d scaled times; want 3 and 5", len(p.speeds), len(p.scaled))
	}
	for i, g := range []int{0, 0, 1, 1, 2} {
		if want := p.ms[i] * p.speeds[g]; p.scaled[i] != want {
			t.Errorf("dissemination %d: scaled %v, want raw x probe %d = %v", i, p.scaled[i], g, want)
		}
	}
}
