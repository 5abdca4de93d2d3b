package core

import "time"

// BenchFunc runs a search of n candidates on a node and reports how long it
// took. Implementations may actually search (real nodes) or consult a
// performance model (simulated nodes); the paper allows both ("the tuning
// step could be skipped when a performance model ... is available").
type BenchFunc func(n uint64) (time.Duration, error)

// TuneOptions configures the tuning step.
type TuneOptions struct {
	// Start is the first batch size to try; 0 means 1024.
	Start uint64
	// TargetEfficiency is the efficiency at which to stop growing the
	// batch; 0 means 0.9. Efficiency is measured against the running
	// peak-throughput estimate.
	TargetEfficiency float64
	// MaxBatch caps the batch size; 0 means 1<<30.
	MaxBatch uint64
}

// Tune performs the paper's per-node tuning step: it benchmarks the node
// with doubling batch sizes, fits the latency-throughput model
// t(n) = t0 + n/X_peak to successive measurements, and stops when the
// measured efficiency n/(t(n)·X_peak) reaches the target. It returns the
// minimum efficient batch n_j and the peak throughput estimate X_j, or the
// first error bench reports: a probe that did not run measures nothing, and
// a made-up sample would reach the balance rule as a real share.
func Tune(bench BenchFunc, opt TuneOptions) (Tuning, error) {
	n := opt.Start
	if n == 0 {
		n = 1024
	}
	target := opt.TargetEfficiency
	if target == 0 {
		target = 0.9
	}
	maxBatch := opt.MaxBatch
	if maxBatch == 0 {
		maxBatch = 1 << 30
	}

	prevN := uint64(0)
	prevT := 0.0
	best := Tuning{MinBatch: n}
	for {
		d, err := bench(n)
		if err != nil {
			return Tuning{}, err
		}
		t := d.Seconds()
		if t <= 0 {
			t = 1e-12
		}
		xObs := float64(n) / t
		// Incremental peak estimate: the marginal throughput between the
		// last two batch sizes cancels the fixed overhead t0.
		xPeak := xObs
		if prevN > 0 && t > prevT {
			xPeak = float64(n-prevN) / (t - prevT)
		}
		if xPeak < xObs {
			xPeak = xObs
		}
		best = Tuning{MinBatch: n, Throughput: xPeak}
		// A single sample cannot separate fixed overhead from throughput
		// (xPeak == xObs trivially), so convergence is only tested from the
		// second measurement on.
		if (prevN > 0 && xObs >= target*xPeak) || n >= maxBatch {
			return best, nil
		}
		prevN, prevT = n, t
		if n > maxBatch/2 {
			n = maxBatch
		} else {
			n *= 2
		}
	}
}
