package main

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"

	"keysearch/internal/core"
	"keysearch/internal/cracker"
	"keysearch/internal/keyspace"
	"keysearch/internal/targetset"
)

// targetRepeats rounds of at least targetPass each time every row: one
// walk of the interval alone is 5–17 ms, too short a window to compare
// rows by.
const (
	targetRepeats = 5
	targetPass    = 100 * time.Millisecond
)

// timing is one row's measurement: keys and seconds summed over every
// round, and the median round's cost per key.
type timing struct {
	tested   uint64
	sec      float64
	nsPerKey float64
}

// TargetRow is one corpus-size line of the multi-target benchmark.
type TargetRow struct {
	CorpusSize  int    `json:"corpus_size"`
	BloomBits   uint64 `json:"bloom_bits"`
	BloomHashes int    `json:"bloom_hashes"`
	// RequestedFPR / EstimatedFPR / MeasuredFPR compare what the filter
	// was asked for, what its geometry predicts, and what probing it with
	// random non-members observes.
	RequestedFPR float64 `json:"requested_fpr"`
	EstimatedFPR float64 `json:"estimated_fpr"`
	MeasuredFPR  float64 `json:"measured_fpr"`
	// Tested and Seconds sum every round; NsPerKey is the median round's
	// cost and MKeys its inverse.
	Tested   uint64  `json:"tested"`
	Seconds  float64 `json:"seconds"`
	NsPerKey float64 `json:"ns_per_key"`
	MKeys    float64 `json:"mkeys"`
	// OverSingleTarget is this row's per-candidate cost relative to the
	// single-target cost of the same two-stage kernel (the corpus-of-one
	// row) — the flatness-in-corpus-size ratio the subsystem promises.
	OverSingleTarget float64 `json:"over_single_target"`
	// Word4Bits and Word4Pass (SHA1 rows only) are the word-4 filter's
	// bitmap size and the fraction of random words it lets through: the share of
	// wrong keys the run walk hashes in full.
	Word4Bits uint64  `json:"word4_bits,omitempty"`
	Word4Pass float64 `json:"word4_pass,omitempty"`
}

// word4Pass probes the set's word-4 filter with n pseudo-random words (a
// splitmix64 stream) and returns the fraction that pass; 0 for digests
// without one.
func word4Pass(set *targetset.Set, n int) float64 {
	f, ok := set.Word4()
	if !ok {
		return 0
	}
	pass := 0
	for _, d := range corpusDigests(n, 4, 0x30d4) {
		if f.MayContain(binary.BigEndian.Uint32(d)) {
			pass++
		}
	}
	return float64(pass) / float64(n)
}

// TargetReport is the whole BENCH_targetset.json document.
type TargetReport struct {
	Quick bool `json:"quick"`
	// ClassicOptimizedNsPerKey and ClassicPlainNsPerKey are the classic
	// single-target MD5 kernels over the same interval, for context. The
	// MD5 corpus kernel hashes every candidate in full (its reversal needs
	// the one target), so the MD5 rows are expected to sit near the plain
	// (full-hash) cost, not the optimized one.
	ClassicOptimizedNsPerKey float64 `json:"classic_optimized_ns_per_key"`
	ClassicPlainNsPerKey     float64 `json:"classic_plain_ns_per_key"`
	// SingleTargetNsPerKey is the MD5 two-stage kernel's cost at corpus
	// size one — the "single-target cost" the flatness bound is measured
	// against.
	SingleTargetNsPerKey float64     `json:"single_target_ns_per_key"`
	Rows                 []TargetRow `json:"rows"`
	// Ratio1e6OverSingleTarget is the headline number: per-candidate cost
	// at 10^6 targets over the single-target (corpus-of-one) cost.
	Ratio1e6OverSingleTarget float64 `json:"ratio_1e6_over_single_target"`
	// CostFlat: the ratio above stays within 1.5x — per-candidate cost is
	// flat in the corpus size across six orders of magnitude.
	CostFlat bool `json:"cost_flat"`
	// FPRBounded: measured FPR at 10^6 targets within 2x requested.
	FPRBounded bool `json:"fpr_bounded"`
	// SHA1Rows are the same corpus sizes over SHA1 digests, searched the
	// way the service searches them: the run walk with the word-4 filter
	// probed after step 75, survivors hashed in full and confirmed. The
	// word probe's pass rate grows with the corpus, so these rows carry the
	// flatness claim for the served kernel, under the same 1.5x bound.
	SHA1Rows                     []TargetRow `json:"sha1_rows"`
	SHA1SingleTargetNsPerKey     float64     `json:"sha1_single_target_ns_per_key"`
	SHA1Ratio1e6OverSingleTarget float64     `json:"sha1_ratio_1e6_over_single_target"`
	SHA1CostFlat                 bool        `json:"sha1_cost_flat"`
}

// corpusDigests generates n deterministic pseudo-random digests of size
// bytes (a splitmix64 stream, eight bytes per draw), none of which any
// searched key hashes to.
func corpusDigests(n, size int, seed uint64) [][]byte {
	out := make([][]byte, n)
	state := seed
	next := func() uint64 {
		state += 0x9e3779b97f4a7c15
		z := state
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	for i := range out {
		d := make([]byte, size)
		for j := 0; j < size; j += 8 {
			v := next()
			for k := 0; k < 8 && j+k < size; k++ {
				d[j+k] = byte(v >> (8 * k))
			}
		}
		out[i] = d
	}
	return out
}

// targetsetMain runs the multi-target benchmark and writes the report.
func targetsetMain(quick bool, out string) error {
	rep := &TargetReport{Quick: quick}

	cs, err := keyspace.NewCharset("abcdefghijklmnopqrstuvwxyz")
	if err != nil {
		return err
	}
	space, err := keyspace.New(cs, 1, 5, keyspace.PrefixMajor)
	if err != nil {
		return err
	}
	n := int64(1 << 20)
	if quick {
		n = 1 << 18
	}
	iv := keyspace.NewInterval(0, n)
	// measure times jobs against each other. Each row's ns/key is the
	// median of targetRepeats rounds; a round times every job once, each
	// for at least targetPass of back-to-back walks of iv, and every other
	// round runs the jobs in reverse order, so slow drift of the host
	// shifts all rows alike instead of the ratios between them.
	measure := func(jobs []*cracker.Job) ([]timing, error) {
		// One untimed warm-up pass settles code and allocator state so the
		// baseline and corpus rows see the same steady state.
		for _, job := range jobs {
			if _, err := cracker.CrackAll(context.Background(), job, keyspace.NewInterval(0, n/8), core.Options{}); err != nil {
				return nil, err
			}
		}
		out := make([]timing, len(jobs))
		rounds := make([][]float64, len(jobs))
		for r := 0; r < targetRepeats; r++ {
			for k := range jobs {
				i := k
				if r%2 == 1 {
					i = len(jobs) - 1 - k
				}
				var tested uint64
				start := time.Now()
				for time.Since(start) < targetPass {
					res, err := cracker.CrackAll(context.Background(), jobs[i], iv, core.Options{})
					if err != nil {
						return nil, err
					}
					tested += res.Tested
				}
				sec := time.Since(start).Seconds()
				out[i].tested += tested
				out[i].sec += sec
				rounds[i] = append(rounds[i], sec/float64(tested)*1e9)
			}
		}
		for i := range out {
			sort.Float64s(rounds[i])
			out[i].nsPerKey = rounds[i][len(rounds[i])/2]
		}
		return out, nil
	}

	// Classic single-target kernels, for context: the optimized tier's
	// reversal/early-exit shortcut skips part of every hash, which the MD5
	// corpus kernel cannot do (its reversal needs the one target), so the
	// plain full-hash tier is the honest floor for its two-stage kernel.
	fmt.Printf("== Multi-target search: per-candidate cost vs corpus size (median of %d rounds of >= %v) ==\n",
		targetRepeats, targetPass)
	tiers := []struct {
		kind cracker.KernelKind
		dst  *float64
	}{
		{cracker.KernelOptimized, &rep.ClassicOptimizedNsPerKey},
		{cracker.KernelPlain, &rep.ClassicPlainNsPerKey},
	}
	var classic []*cracker.Job
	for _, tier := range tiers {
		base, err := cracker.NewJobHex(cracker.MD5, targetHex(cracker.MD5), space)
		if err != nil {
			return err
		}
		base.Kind = tier.kind
		classic = append(classic, base)
	}
	times, err := measure(classic)
	if err != nil {
		return err
	}
	for i, tier := range tiers {
		tm := times[i]
		*tier.dst = tm.nsPerKey
		fmt.Printf("classic %-9s: %10d keys in %6.3fs  %7.2f ns/key  %8.2f MKey/s\n",
			tier.kind, tm.tested, tm.sec, tm.nsPerKey, 1e3/tm.nsPerKey)
	}

	// rows measures one algorithm's corpus sizes; the first row is the
	// single-target cost the others are relative to.
	rows := func(alg cracker.Algorithm) ([]TargetRow, error) {
		sizes := []int{1, 1_000, 1_000_000}
		sets := make([]*targetset.Set, len(sizes))
		jobs := make([]*cracker.Job, len(sizes))
		for i, size := range sizes {
			set, err := targetset.Build(corpusDigests(size, alg.DigestSize(), 0xbe9c), targetset.Options{})
			if err != nil {
				return nil, err
			}
			sets[i] = set
			jobs[i] = &cracker.Job{Algorithm: alg, Corpus: set, Space: space}
		}
		times, err := measure(jobs)
		if err != nil {
			return nil, err
		}
		var out []TargetRow
		for i, set := range sets {
			tm := times[i]
			row := TargetRow{
				CorpusSize:   sizes[i],
				BloomBits:    set.Bits(),
				BloomHashes:  set.Hashes(),
				RequestedFPR: set.FPRequested(),
				EstimatedFPR: set.FPEstimate(),
				MeasuredFPR:  set.MeasuredFPR(200_000, 0x5eed),
				Tested:       tm.tested,
				Seconds:      tm.sec,
				NsPerKey:     tm.nsPerKey,
				MKeys:        1e3 / tm.nsPerKey,
			}
			if f, ok := set.Word4(); ok {
				row.Word4Bits, row.Word4Pass = f.Bits(), word4Pass(set, 1<<20)
			}
			if len(out) > 0 {
				row.OverSingleTarget = row.NsPerKey / out[0].NsPerKey
			} else {
				row.OverSingleTarget = 1
			}
			out = append(out, row)
			fmt.Printf("%-4s corpus %8d: %10d keys in %6.3fs  %7.2f ns/key  %8.2f MKey/s  (%.3fx single-target)  fpr req %.1e meas %.1e  word4 pass %.1e\n",
				alg, row.CorpusSize, row.Tested, row.Seconds, row.NsPerKey, row.MKeys, row.OverSingleTarget, row.RequestedFPR, row.MeasuredFPR, row.Word4Pass)
		}
		return out, nil
	}
	if rep.Rows, err = rows(cracker.MD5); err != nil {
		return err
	}
	if rep.SHA1Rows, err = rows(cracker.SHA1); err != nil {
		return err
	}

	rep.SingleTargetNsPerKey = rep.Rows[0].NsPerKey
	last := rep.Rows[len(rep.Rows)-1]
	rep.Ratio1e6OverSingleTarget = last.OverSingleTarget
	rep.CostFlat = last.OverSingleTarget <= 1.5
	rep.FPRBounded = last.MeasuredFPR <= 2*last.RequestedFPR
	rep.SHA1SingleTargetNsPerKey = rep.SHA1Rows[0].NsPerKey
	sha1Last := rep.SHA1Rows[len(rep.SHA1Rows)-1]
	rep.SHA1Ratio1e6OverSingleTarget = sha1Last.OverSingleTarget
	rep.SHA1CostFlat = sha1Last.OverSingleTarget <= 1.5
	fmt.Printf("== cost_flat=%v (md5 1e6 corpus %.3fx single-target, bound 1.5x)  sha1_cost_flat=%v (%.3fx)  fpr_bounded=%v (measured %.2e, bound %.2e) ==\n",
		rep.CostFlat, last.OverSingleTarget, rep.SHA1CostFlat, sha1Last.OverSingleTarget, rep.FPRBounded, last.MeasuredFPR, 2*last.RequestedFPR)

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(out, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("report written to %s\n", out)
	if !rep.CostFlat {
		return fmt.Errorf("million-target MD5 per-candidate cost is %.3fx single-target (bound 1.5x)", last.OverSingleTarget)
	}
	if !rep.SHA1CostFlat {
		return fmt.Errorf("million-target SHA1 per-candidate cost is %.3fx single-target (bound 1.5x)", sha1Last.OverSingleTarget)
	}
	if !rep.FPRBounded {
		return fmt.Errorf("measured FPR %.3e exceeds 2x requested %.3e", last.MeasuredFPR, last.RequestedFPR)
	}
	return nil
}
