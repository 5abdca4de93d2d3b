package cracker

import (
	"context"
	"encoding/hex"
	"fmt"
	"time"

	"keysearch/internal/core"
	"keysearch/internal/hash/md5x"
	"keysearch/internal/hash/sha1x"
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
	// An SHA1 corpus on KernelOptimized gets the run walk's word-probe
	// exit (see CrackInterval); every other corpus job hashes each
	// candidate in full, whatever the Kind.
	Kind KernelKind
	// Salt, when non-empty, is combined with each candidate before
	// hashing.
	Salt Salt

	// single is Target as a corpus of one, the set a single SHA1 target
	// is searched as (see Prepare); nil until built.
	single *targetset.Set
}

// Prepare builds, once, what every search of the job would otherwise
// rebuild: the corpus of one — a word-4 bitmap and a Bloom filter — that
// a single SHA1 target is searched as. Call it when the job's fields are
// final, before its searches start; the set does not follow a later
// change of Target. An unprepared job still searches correctly, building
// the set per search.
func (j *Job) Prepare() error {
	if j.Algorithm != SHA1 || j.Corpus != nil {
		return nil
	}
	set, err := j.targetSet()
	j.single = set
	return err
}

// targetSet returns the set a SHA1 job's run walk probes: its corpus, or
// its single target as a corpus of one — Prepare's, or a fresh one.
func (j *Job) targetSet() (*targetset.Set, error) {
	switch {
	case j.Corpus != nil:
		return j.Corpus, nil
	case j.single != nil:
		return j.single, nil
	case len(j.Target) != sha1x.Size:
		return nil, fmt.Errorf("cracker: target length %d, want %d for %s", len(j.Target), sha1x.Size, j.Algorithm)
	}
	return targetset.Build([][]byte{j.Target}, targetset.Options{})
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
// point dispatch workers use on their assigned sub-spaces. It is the one
// place a walk is picked: a job on the optimized kernel, unsalted or
// suffix-salted, over a prefix-major space is searched a run at a time
// (core.SearchRuns) when it is MD5 with a single target (md5x.RunSearcher)
// or SHA1 with a single target or a corpus (sha1x.RunSearcher); every
// other job one candidate at a time through its TestFactory.
func CrackInterval(ctx context.Context, job *Job, iv keyspace.Interval, opt core.Options) (*core.Result, error) {
	if job.Space == nil {
		return nil, fmt.Errorf("cracker: job has no key space")
	}
	if opt.MaxSolutions == 0 {
		opt.MaxSolutions = 1
	}
	if job.searchesRuns() {
		newTest, err := job.runTestFactory()
		if err != nil {
			return nil, err
		}
		return core.SearchRuns(ctx, job.Space, iv, newTest, opt)
	}
	factory, err := job.TestFactory()
	if err != nil {
		return nil, err
	}
	return core.SearchEach(ctx, core.KeyspaceFactory(job.Space), iv, factory, opt)
}

// searchesRuns reports whether CrackInterval walks the job's space a run
// at a time. A suffix salt keeps a run's varying bytes at the front of the
// hashed message; a prefix salt moves them out of word 0. An MD5 corpus
// has no run searcher: its kernel's reversal needs the one target.
func (j *Job) searchesRuns() bool {
	return (j.Algorithm == MD5 && j.Corpus == nil || j.Algorithm == SHA1) &&
		j.Kind == KernelOptimized && len(j.Salt.Prefix) == 0 && j.Space.Order() == keyspace.PrefixMajor
}

// runTestFactory returns one run searcher per worker, testing each run's
// keys with the salt suffix appended and reporting the keys alone. A
// single SHA1 target is searched as a corpus of one.
func (j *Job) runTestFactory() (core.RunTestFactory, error) {
	symbols := []byte(j.Space.Charset().String())
	var newSearch func() core.RunTestFunc
	switch {
	case j.Algorithm == SHA1:
		set, err := j.targetSet()
		if err != nil {
			return nil, err
		}
		if _, err := sha1x.NewRunSearcher(set, symbols); err != nil {
			return nil, err
		}
		newSearch = func() core.RunTestFunc {
			s, _ := sha1x.NewRunSearcher(set, symbols)
			return s.SearchRun
		}
	default:
		if len(j.Target) != md5x.Size {
			return nil, fmt.Errorf("cracker: target length %d, want %d for %s", len(j.Target), md5x.Size, j.Algorithm)
		}
		digest := [md5x.Size]byte(j.Target)
		newSearch = func() core.RunTestFunc { return md5x.NewRunSearcher(digest, symbols).SearchRun }
	}
	suffix := j.Salt.Suffix
	if len(suffix) == 0 {
		return newSearch, nil
	}
	return func() core.RunTestFunc {
		search := newSearch()
		var msg []byte
		return func(key []byte, k int, n uint64, found [][]byte) [][]byte {
			msg = append(append(msg[:0], key...), suffix...)
			from := len(found)
			found = search(msg, k, n, found)
			for i := from; i < len(found); i++ {
				found[i] = found[i][:len(key)]
			}
			return found
		}
	}, nil
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
// cancelled fails the tuning step. The probes go through CrackAll, so they
// time the walk a lease of the job will run.
func Tune(ctx context.Context, job *Job, workers int, start uint64) (core.Tuning, error) {
	size, ok := job.Space.Size64()
	if !ok {
		size = 1 << 62
	}
	if start == 0 {
		start = 4096
	}
	bench := func(n uint64) (time.Duration, error) {
		t0 := time.Now()
		iv := keyspace.Interval{End: keyspace.IDOf(min(n, size))}
		_, err := CrackAll(ctx, job, iv, core.Options{Workers: workers})
		return time.Since(t0), err
	}
	return core.Tune(bench, core.TuneOptions{Start: start, TargetEfficiency: 0.9, MaxBatch: size})
}
