package core

import (
	"math"
	"testing"
	"time"
)

func TestSearchCostFormulas(t *testing.T) {
	m := CostModel{Kf: 10, Knext: 1, KC: 5}
	if got := m.SearchCost(1); got != 15 {
		t.Errorf("SearchCost(1) = %v, want 15", got)
	}
	// K_f + 9·K_next + 10·K_C = 10 + 9 + 50 = 69.
	if got := m.SearchCost(10); got != 69 {
		t.Errorf("SearchCost(10) = %v, want 69", got)
	}
	if got := m.SearchCostNoNext(10); got != 150 {
		t.Errorf("SearchCostNoNext(10) = %v, want 150", got)
	}
	if got := m.SearchCost(0); got != 0 {
		t.Errorf("SearchCost(0) = %v", got)
	}
}

// TestEfficiencyIncreasesWithN checks the paper's claim: when
// K_next < K_f, efficiency increases with n and approaches KC/(Knext+KC).
func TestEfficiencyIncreasesWithN(t *testing.T) {
	m := CostModel{Kf: 100, Knext: 1, KC: 5}
	prev := 0.0
	for _, n := range []float64{1, 10, 100, 1000, 1e6} {
		e := m.Efficiency(n)
		if e <= prev {
			t.Errorf("efficiency not increasing at n=%v: %v <= %v", n, e, prev)
		}
		prev = e
	}
	limit := m.KC / (m.Knext + m.KC)
	if math.Abs(prev-limit) > 0.001 {
		t.Errorf("efficiency limit = %v, want ≈ %v", prev, limit)
	}
}

func TestDispatchBounds(t *testing.T) {
	nodes := []NodeCost{
		{Scatter: 1, Search: 10, Gather: 2},
		{Scatter: 2, Search: 20, Gather: 1},
		{Scatter: 1, Search: 5, Gather: 1},
	}
	lo, hi := DispatchBounds(nodes, 3)
	if want := 23.0 + 3; lo != want {
		t.Errorf("lo = %v, want %v", lo, want)
	}
	if want := 4.0 + 20 + 4 + 3; hi != want {
		t.Errorf("hi = %v, want %v", hi, want)
	}
	if lo > hi {
		t.Error("bounds inverted")
	}
}

// TestBalance reproduces the paper's balancing example: workloads must be
// proportional to throughputs and every node must get at least its n_j.
func TestBalance(t *testing.T) {
	tunings := []Tuning{
		{MinBatch: 1000, Throughput: 100},
		{MinBatch: 500, Throughput: 400},
		{MinBatch: 8000, Throughput: 200},
	}
	n := Balance(tunings)
	// N_max is owed to node 2 (n=8000, X=200): N_max = 8000·400/200 = 16000.
	if n[1] != 16000 {
		t.Errorf("N for fastest node = %d, want 16000", n[1])
	}
	for j, tn := range tunings {
		if n[j] < tn.MinBatch {
			t.Errorf("node %d got %d < its minimum %d", j, n[j], tn.MinBatch)
		}
	}
	// Proportionality N_j / X_j constant (within rounding).
	r0 := float64(n[0]) / tunings[0].Throughput
	for j := 1; j < len(n); j++ {
		r := float64(n[j]) / tunings[j].Throughput
		if math.Abs(r-r0) > 0.1 {
			t.Errorf("node %d not proportional: %v vs %v", j, r, r0)
		}
	}
}

func TestBalanceEdgeCases(t *testing.T) {
	if Balance(nil) != nil {
		t.Error("Balance(nil) should be nil")
	}
	z := Balance([]Tuning{{MinBatch: 10, Throughput: 0}, {MinBatch: 10, Throughput: 0}})
	for _, n := range z {
		if n != 0 {
			t.Error("zero-throughput nodes must get zero work")
		}
	}
	// A dead node among live ones.
	n := Balance([]Tuning{{MinBatch: 100, Throughput: 50}, {MinBatch: 100, Throughput: 0}})
	if n[0] < 100 || n[1] != 0 {
		t.Errorf("mixed balance = %v", n)
	}
}

func TestAggregate(t *testing.T) {
	tunings := []Tuning{
		{MinBatch: 1000, Throughput: 100},
		{MinBatch: 1000, Throughput: 300},
	}
	agg := Aggregate(tunings)
	if agg.Throughput != 400 {
		t.Errorf("aggregate throughput = %v, want 400", agg.Throughput)
	}
	// Children balanced: N_max = 1000·300/... node0: n=1000 X=100 → 1000·3=3000 for fast node;
	// N = [1000, 3000] → MinBatch 4000.
	if agg.MinBatch != 4000 {
		t.Errorf("aggregate min batch = %d, want 4000", agg.MinBatch)
	}
}

func TestWeights(t *testing.T) {
	w := Weights([]Tuning{{Throughput: 2}, {Throughput: 8}})
	if w[0] != 2 || w[1] != 8 {
		t.Errorf("weights = %v", w)
	}
}

// TestTune drives the tuning step against a synthetic node obeying
// t(n) = t0 + n/X and checks that both X_j and the efficiency target are
// recovered.
func TestTune(t *testing.T) {
	const (
		xPeak = 1e6  // keys/s
		t0    = 5e-3 // 5ms fixed overhead per batch
	)
	bench := func(n uint64) (time.Duration, error) {
		return time.Duration((t0 + float64(n)/xPeak) * float64(time.Second)), nil
	}
	tn, err := Tune(bench, TuneOptions{Start: 1024, TargetEfficiency: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if tn.Throughput < 0.9*xPeak || tn.Throughput > 1.1*xPeak {
		t.Errorf("estimated X = %v, want ≈ %v", tn.Throughput, xPeak)
	}
	// Efficiency at the returned batch must meet the target:
	// n/(t(n)·X) >= 0.9 → n >= 0.9·t0·X/(1-0.9) = 45000.
	eff := float64(tn.MinBatch) / ((t0 + float64(tn.MinBatch)/xPeak) * xPeak)
	if eff < 0.85 {
		t.Errorf("efficiency at n_j = %v", eff)
	}
}

func TestTuneMaxBatchCap(t *testing.T) {
	bench := func(n uint64) (time.Duration, error) { return time.Second, nil } // flat: never efficient
	tn, err := Tune(bench, TuneOptions{Start: 16, TargetEfficiency: 0.99, MaxBatch: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	if tn.MinBatch > 1<<12 {
		t.Errorf("batch %d exceeded cap", tn.MinBatch)
	}
}
