package soak

// The health prober and lag detector. One goroutine scrapes every
// process's /metrics endpoint each ProbeInterval and reads its delivery
// progress: ringcast_node_delivered_total summed over topics. A process
// that is nominally up but whose delivery progress stalls for
// LagWindow consecutive probes — while the fleet kept publishing — is
// flagged as lagging: the live analogue of the paper's failed-but-not-
// yet-evicted node, and the exact signature of a wedged consumer backing
// up the delivery pipeline.

import (
	"context"
	"time"
)

// probeLoop polls every process until the phase context ends.
func (f *fleet) probeLoop(ctx context.Context) {
	n := len(f.procs)
	lastDelivered := make([]float64, n)
	for i := range lastDelivered {
		lastDelivered[i] = -1 // no baseline yet
	}
	zeroRuns := make([]int, n)
	// pubHist rings the publish counter across the lag window, so the
	// detector only fires when the fleet actually published enough during
	// the stalled probes to make "zero progress" meaningful.
	pubHist := make([]int, f.cfg.LagWindow+1)
	tick := time.NewTicker(f.cfg.ProbeInterval)
	defer tick.Stop()
	probe := 0
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
		pubHist[probe%len(pubHist)] = f.pubCount()
		probe++
		for i, p := range f.procs {
			st, since := p.snapshot()
			if st != stateUp || time.Since(since) < f.cfg.ProbeInterval {
				// Down, restarting or too fresh: reset the baseline so a
				// restarted process (whose counters restart from zero) is
				// not misread as regressing.
				lastDelivered[i], zeroRuns[i] = -1, 0
				continue
			}
			series, err := p.scrape(f.cfg.ProbeInterval)
			if err != nil {
				zeroRuns[i]++ // unreachable counts as zero progress
				f.maybeFlagLag(i, zeroRuns[i], probe, pubHist, since)
				continue
			}
			delivered := series.Sum(deliveredFamily)
			switch {
			case lastDelivered[i] < 0:
				zeroRuns[i] = 0
			case delivered > lastDelivered[i]:
				zeroRuns[i] = 0
			default:
				zeroRuns[i]++
			}
			lastDelivered[i] = delivered
			f.maybeFlagLag(i, zeroRuns[i], probe, pubHist, since)
		}
	}
}

// maybeFlagLag applies the lag rule for proc i: LagWindow consecutive
// zero-progress probes, at least one publish per probe across the window
// on average, and the process up since before the window started.
func (f *fleet) maybeFlagLag(i, zeroRun, probe int, pubHist []int, upSince time.Time) {
	w := f.cfg.LagWindow
	if zeroRun < w || probe <= w {
		return
	}
	windowSpan := time.Duration(w) * f.cfg.ProbeInterval
	if time.Since(upSince) < windowSpan {
		return
	}
	newest := pubHist[(probe-1)%len(pubHist)]
	oldest := pubHist[probe%len(pubHist)] // the slot about to be overwritten
	if newest-oldest < w {
		return
	}
	f.flagLag(i)
}
