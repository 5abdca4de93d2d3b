package cracker

import (
	"context"
	"encoding/hex"
	"fmt"
	"math/big"
	"time"

	"keysearch/internal/core"
	"keysearch/internal/keyspace"
	"keysearch/internal/targetset"
)

// Job describes one cracking task: which digest to invert over which key
// space, with which kernel tier.
type Job struct {
	Algorithm Algorithm
	// Target is the raw digest to invert. Ignored when Corpus is set.
	Target []byte
	// Corpus, when non-nil, switches the job to multi-target mode: a
	// candidate is a solution when its digest is a member of the corpus
	// (Bloom pre-screen + exact confirm). Searches over a corpus usually
	// want MaxSolutions -1 (CrackAll) since many keys can hit.
	Corpus *targetset.Set
	// Space is the candidate key space.
	Space *keyspace.Space
	// Kind selects the kernel optimization tier (default KernelOptimized).
	// Corpus mode always hashes the full candidate, so Kind only applies
	// to single-target jobs.
	Kind KernelKind
	// Salt, when non-empty, is combined with each candidate before
	// hashing.
	Salt Salt
}

// NewJobHex builds a job from a hex-encoded digest.
func NewJobHex(alg Algorithm, hexDigest string, space *keyspace.Space) (*Job, error) {
	raw, err := hex.DecodeString(hexDigest)
	if err != nil {
		return nil, fmt.Errorf("cracker: bad hex digest: %w", err)
	}
	if len(raw) != alg.DigestSize() {
		return nil, fmt.Errorf("cracker: digest length %d, want %d for %s", len(raw), alg.DigestSize(), alg)
	}
	return &Job{Algorithm: alg, Target: raw, Space: space}, nil
}

// TestFactory returns a core.TestFactory producing one kernel per worker.
func (j *Job) TestFactory() (core.TestFactory, error) {
	if j.Corpus != nil {
		// The set is immutable and safe for concurrent readers, so every
		// worker shares it; only the salt buffer is per-kernel state.
		if _, err := NewSaltedCorpusKernel(j.Algorithm, j.Corpus, j.Salt); err != nil {
			return nil, err
		}
		return func() core.TestFunc {
			k, _ := NewSaltedCorpusKernel(j.Algorithm, j.Corpus, j.Salt)
			return k.Test
		}, nil
	}
	// Build one kernel eagerly to surface configuration errors.
	if _, err := NewSaltedKernel(j.Algorithm, j.Kind, j.Target, j.Salt); err != nil {
		return nil, err
	}
	return func() core.TestFunc {
		k, _ := NewSaltedKernel(j.Algorithm, j.Kind, j.Target, j.Salt)
		return k.Test
	}, nil
}

// Crack searches the whole space of the job for preimages of the target.
func Crack(ctx context.Context, job *Job, opt core.Options) (*core.Result, error) {
	return CrackInterval(ctx, job, job.Space.Whole(), opt)
}

// CrackInterval searches only the given identifier interval, the entry
// point dispatch workers use on their assigned sub-spaces.
func CrackInterval(ctx context.Context, job *Job, iv keyspace.Interval, opt core.Options) (*core.Result, error) {
	if job.Space == nil {
		return nil, fmt.Errorf("cracker: job has no key space")
	}
	factory, err := job.TestFactory()
	if err != nil {
		return nil, err
	}
	if opt.MaxSolutions == 0 {
		opt.MaxSolutions = 1
	}
	return core.SearchEach(ctx, core.KeyspaceFactory(job.Space), iv, factory, opt)
}

// CrackAll is CrackInterval with no early stop: it exhausts the interval
// and returns every preimage (hash collisions within the space included).
func CrackAll(ctx context.Context, job *Job, iv keyspace.Interval, opt core.Options) (*core.Result, error) {
	opt.MaxSolutions = -1 // negative disables the early stop
	return CrackInterval(ctx, job, iv, opt)
}

// Tune is the paper's tuning step run honestly on the local engine: it
// searches doubling batches from the start of the job's own space with
// workers goroutines (0 = NumCPU), starting at start candidates (0 = 4096)
// and capped at the space size, and fits the latency/throughput model
// (core.Tune) to its 0.9 efficiency target. A probe that fails or is
// cancelled fails the tuning step.
func Tune(ctx context.Context, job *Job, workers int, start uint64) (core.Tuning, error) {
	factory, err := job.TestFactory()
	if err != nil {
		return core.Tuning{}, err
	}
	size, ok := job.Space.Size64()
	if !ok {
		size = 1 << 62
	}
	if start == 0 {
		start = 4096
	}
	bench := func(n uint64) (time.Duration, error) {
		t0 := time.Now()
		iv := keyspace.Interval{Start: new(big.Int), End: new(big.Int).SetUint64(min(n, size))}
		_, err := core.SearchEach(ctx, core.KeyspaceFactory(job.Space), iv, factory, core.Options{Workers: workers})
		return time.Since(t0), err
	}
	return core.Tune(bench, core.TuneOptions{Start: start, TargetEfficiency: 0.9, MaxBatch: size})
}
