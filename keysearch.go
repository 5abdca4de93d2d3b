// Package keysearch is a from-scratch reproduction of "Exhaustive Key
// Search on Clusters of GPUs" (Barbieri, Cardellini, Filippone; IPPS
// 2014): the paper's exhaustive-search parallelization pattern, its
// MD5/SHA1 password-cracking system with salted targets, its optimized
// GPU kernels (run on a simulated SIMT device, since the original NVIDIA
// hardware is modeled rather than required), and its hierarchical
// heterogeneous dispatch.
//
// The package is a facade: it re-exports the stable surface of the
// internal packages. Quick start:
//
//	space, _ := keysearch.NewSpace(keysearch.Lowercase, 1, 4)
//	res, _ := keysearch.CrackHex(ctx, keysearch.MD5,
//	    "0cc175b9c0f1b6a831c399e269772661", space)
//	fmt.Printf("%s\n", res.Solutions[0])
//
// See the examples directory for cracking on a simulated GPU cluster and
// a salted audit session.
package keysearch

import (
	"context"
	"fmt"

	"keysearch/internal/core"
	"keysearch/internal/cracker"
	"keysearch/internal/keyspace"
)

// Re-exported key-space types. Spaces are enumerated in the prefix-major
// order of the paper's equation (4), which the GPU reversal optimization
// requires, and hold fewer than 2^128 keys.
type (
	// Space is a set of keys over a charset with bounded length.
	Space = keyspace.Space
	// Interval is a half-open range of key identifiers.
	Interval = keyspace.Interval
)

// Predefined charset strings.
const (
	Lowercase = "abcdefghijklmnopqrstuvwxyz"
	DigitsSet = "0123456789"
)

// NewSpace builds a key space over the given charset string with lengths
// in [minLen, maxLen], using the prefix-major order of the paper's
// equation (4).
func NewSpace(charset string, minLen, maxLen int) (*Space, error) {
	cs, err := keyspace.NewCharset(charset)
	if err != nil {
		return nil, err
	}
	return keyspace.New(cs, minLen, maxLen, keyspace.PrefixMajor)
}

// Hash algorithms and kernel tiers.
type (
	// Algorithm identifies a hash function (MD5 or SHA1).
	Algorithm = cracker.Algorithm
	// KernelKind selects a kernel optimization tier.
	KernelKind = cracker.KernelKind
	// Salt combines a candidate with fixed prefix/suffix bytes.
	Salt = cracker.Salt
	// Job describes a cracking task.
	Job = cracker.Job
)

// Supported algorithms and kernel tiers.
const (
	MD5  = cracker.MD5
	SHA1 = cracker.SHA1

	KernelOptimized = cracker.KernelOptimized
	KernelPlain     = cracker.KernelPlain
	KernelNaive     = cracker.KernelNaive
)

// ParseAlgorithm parses "md5" or "sha1".
func ParseAlgorithm(s string) (Algorithm, error) { return cracker.ParseAlgorithm(s) }

// Result is the outcome of a search.
type Result = core.Result

// Options tunes a local search.
type Options = core.Options

// Crack searches the job's whole space for preimages of its target,
// stopping at the first hit.
func Crack(ctx context.Context, job *Job, opt Options) (*Result, error) {
	return cracker.Crack(ctx, job, opt)
}

// CrackHex cracks a hex-encoded digest over a space with the optimized
// kernel and default options.
func CrackHex(ctx context.Context, alg Algorithm, hexDigest string, space *Space) (*Result, error) {
	job, err := cracker.NewJobHex(alg, hexDigest, space)
	if err != nil {
		return nil, err
	}
	return cracker.Crack(ctx, job, core.Options{})
}

// CrackSalted cracks a salted digest (raw bytes) over a space.
func CrackSalted(ctx context.Context, alg Algorithm, digest []byte, salt Salt, space *Space, opt Options) (*Result, error) {
	if len(digest) != alg.DigestSize() {
		return nil, fmt.Errorf("keysearch: digest length %d, want %d", len(digest), alg.DigestSize())
	}
	job := &Job{Algorithm: alg, Target: digest, Space: space, Salt: salt}
	return cracker.Crack(ctx, job, opt)
}

// HashKey returns the digest of key under the algorithm (target
// generation for tests and demos).
func HashKey(alg Algorithm, key []byte) []byte { return alg.HashKey(key) }

// Best is a candidate with its score (see FindBest).
type Best = core.Best

// FindBest exhaustively minimizes score over an identifier interval of the
// space — the paper's §III.A variant where passing the test is no proof of
// a solution and the master must run a merge step. Lower scores win.
func FindBest(ctx context.Context, space *Space, iv Interval, score func(candidate []byte) float64, opt Options) (*Best, uint64, error) {
	return core.SearchBest(ctx, core.KeyspaceFactory(space), iv,
		func() core.ScoreFunc { return score }, opt)
}

// MergeBest folds per-node minima into the global one (the master-side
// merge of a distributed FindBest).
func MergeBest(parts ...*Best) *Best { return core.MergeBest(parts...) }
