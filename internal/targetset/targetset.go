// Package targetset implements the multi-target test condition: a
// deterministic, seedable Bloom filter sized from the corpus cardinality
// and a requested false-positive rate, backed by a sorted exact-confirm
// index over the full digest corpus.
//
// The shape follows the multi-target GPU crackers the paper's workload
// implies (and the KeyHunt lineage documents): candidates are hashed
// once, the digest probed against a bit bank that answers "certainly not
// a target" for all but a tuned fraction p of candidates, and only the
// survivors pay for an exact membership check. The effective per-candidate
// test cost is therefore
//
//	K_C = K_filter + p·K_confirm
//
// which is how internal/core's cost model accounts for it (core.TwoStage).
//
// Everything is deterministic: the same digests, rate and seed produce the
// same filter bit for bit, so the serialized form (see codec.go) is
// content-addressable and both ends of the wire protocol agree on it.
package targetset

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"sort"
)

// DefaultFPRate is the false-positive rate used when Options.FPRate is
// zero: one candidate in a thousand pays the exact-confirm cost.
const DefaultFPRate = 1e-3

// maxHashes caps the probe count k; beyond ~16 probes the filter is
// misconfigured (k* = m/n·ln2 only reaches 16 when p < 2^-16).
const maxHashes = 16

// Options configures Build.
type Options struct {
	// FPRate is the requested false-positive rate in (0, 0.5]
	// (0 = DefaultFPRate). The filter is sized so the expected rate at
	// the given corpus cardinality stays at or below it.
	FPRate float64
	// Seed perturbs the probe hash function. Two sets built with
	// different seeds share no bit pattern, which is what lets a fleet
	// re-roll a pathological corpus; the zero seed is fully supported
	// and is the canonical choice.
	Seed uint64
}

// Set is an immutable digest corpus with a Bloom pre-screen. A Set is
// safe for concurrent readers; Build is the only writer.
type Set struct {
	size   int    // digest length in bytes
	n      int    // corpus cardinality after dedup
	corpus []byte // sorted unique digests, n*size bytes
	seed   uint64
	k      int      // probes per membership query
	mask   uint64   // bit-index mask; bit count mask+1 is a power of two
	bits   []uint64 // the filter bank, (mask+1)/64 words
	fpr    float64  // requested rate (after defaulting)
	word4  WordFilter
}

// WordFilter is an exact-superset filter over one 32-bit digest word: a
// bitmap in which the word of every corpus digest sets two bits, one
// indexed by its low bits and one by its high bits, so a word that finds
// either bit clear belongs to no member. It is a search kernel's first
// stage, probed inside the compression before the digest is complete
// (KeyHunt's CheckBloomBinary, moved ahead of the hash's last steps).
type WordFilter struct {
	bits  []uint64
	mask  uint32 // low-bits index: w & mask
	shift uint32 // high-bits index: w >> shift
}

// MayContain reports whether some corpus digest may carry word w: false
// is certain, true passes every member's word and, of the others, about
// the square of the bitmap's fill, 1 - e^(-2·Len()/Bits()).
func (f WordFilter) MayContain(w uint32) bool {
	i, j := w&f.mask, w>>f.shift
	return f.bits[i>>6]&(1<<(i&63)) != 0 && f.bits[j>>6]&(1<<(j&63)) != 0
}

// Bits returns the bitmap size in bits.
func (f WordFilter) Bits() uint64 { return uint64(f.mask) + 1 }

// Layout returns what MayContain reads, for a kernel that probes the
// filter itself: word w passes when bits w&mask and w>>shift of bitmap
// are both set, bit i being bitmap[i/64]>>(i%64)&1. The bitmap is shared
// and must not be modified.
func (f WordFilter) Layout() (bitmap []uint64, mask, shift uint32) { return f.bits, f.mask, f.shift }

// word4Bits sizes the word-4 bitmap from the corpus cardinality alone:
// 64 bits per digest, a power of two between 2^16 (so a single target
// passes about one wrong word in 2^30) and 2^24 (2 MiB: a larger bitmap
// misses the cache on more probes than it saves in wrong words; at 10^6
// digests 2^24 bits pass about 1.3 % of them).
func word4Bits(n int) uint64 {
	m := uint64(1 << 16)
	for m < 64*uint64(n) && m < 1<<24 {
		m <<= 1
	}
	return m
}

// indexWord4 builds the word-4 filter over digest bytes [16:20] (SHA1's
// last state word, big-endian) for digests of at least 20 bytes. It is
// derived from the sorted corpus, so Build and Decode build the same one
// and the encoding does not carry it.
func (s *Set) indexWord4() {
	if s.size < 20 {
		return
	}
	m := word4Bits(s.n)
	f := WordFilter{bits: make([]uint64, m/64), mask: uint32(m - 1), shift: uint32(32 - bits.TrailingZeros64(m))}
	for i := 0; i < s.n; i++ {
		w := binary.BigEndian.Uint32(s.corpus[i*s.size+16:])
		for _, j := range [2]uint32{w & f.mask, w >> f.shift} {
			f.bits[j>>6] |= 1 << (j & 63)
		}
	}
	s.word4 = f
}

// Word4 returns the exact-superset filter over digest bytes [16:20], read
// as a big-endian word; ok is false for digests shorter than 20 bytes,
// which have none.
func (s *Set) Word4() (f WordFilter, ok bool) { return s.word4, s.word4.bits != nil }

// Build constructs a Set from raw digests. All digests must share one
// nonzero length; duplicates are removed. The input slice is not
// retained.
func Build(digests [][]byte, opt Options) (*Set, error) {
	if len(digests) == 0 {
		return nil, fmt.Errorf("targetset: empty corpus")
	}
	size := len(digests[0])
	if size < 1 || size > 255 {
		return nil, fmt.Errorf("targetset: digest size %d outside [1,255]", size)
	}
	for i, d := range digests {
		if len(d) != size {
			return nil, fmt.Errorf("targetset: digest %d has length %d, want %d", i, len(d), size)
		}
	}
	if opt.FPRate == 0 {
		opt.FPRate = DefaultFPRate
	}
	if opt.FPRate < 0 || opt.FPRate > 0.5 || math.IsNaN(opt.FPRate) {
		return nil, fmt.Errorf("targetset: false-positive rate %v outside (0, 0.5]", opt.FPRate)
	}

	sorted := make([][]byte, len(digests))
	copy(sorted, digests)
	sort.Slice(sorted, func(i, j int) bool { return bytes.Compare(sorted[i], sorted[j]) < 0 })
	corpus := make([]byte, 0, len(sorted)*size)
	n := 0
	for i, d := range sorted {
		if i > 0 && bytes.Equal(d, sorted[i-1]) {
			continue
		}
		corpus = append(corpus, d...)
		n++
	}

	mBits, k := Size(n, opt.FPRate)
	s := &Set{
		size:   size,
		n:      n,
		corpus: corpus,
		seed:   opt.Seed,
		k:      k,
		mask:   mBits - 1,
		bits:   make([]uint64, mBits/64),
		fpr:    opt.FPRate,
	}
	for i := 0; i < n; i++ {
		s.insert(corpus[i*size : (i+1)*size])
	}
	s.indexWord4()
	return s, nil
}

// Size returns the filter geometry for a corpus of n digests at rate p:
// the bit count m (a power of two, at least 64) and the probe count k.
// The optimum m = -n·ln p / (ln 2)² is rounded up to the next power of
// two, and k = m/n·ln 2 re-derived from the rounded m, so the expected
// rate is at or below the request.
func Size(n int, p float64) (mBits uint64, k int) {
	if n < 1 {
		n = 1
	}
	m := -float64(n) * math.Log(p) / (math.Ln2 * math.Ln2)
	mBits = 64
	for float64(mBits) < m {
		mBits <<= 1
	}
	k = int(math.Round(float64(mBits) / float64(n) * math.Ln2))
	if k < 1 {
		k = 1
	}
	if k > maxHashes {
		k = maxHashes
	}
	return mBits, k
}

// hash2 derives the two 64-bit hash values double hashing combines into
// the k probe indices: h1 is seeded FNV-1a over the digest, h2 a
// finalizer-mixed copy forced odd (odd strides visit every slot of a
// power-of-two table).
func (s *Set) hash2(d []byte) (h1, h2 uint64) {
	h1 = 14695981039346656037 ^ (s.seed * 0x9e3779b97f4a7c15)
	//keyvet:hotloop
	for _, b := range d {
		h1 ^= uint64(b)
		h1 *= 1099511628211
	}
	h2 = h1
	h2 ^= h2 >> 33
	h2 *= 0xff51afd7ed558ccd
	h2 ^= h2 >> 33
	h2 |= 1
	return h1, h2
}

func (s *Set) insert(d []byte) {
	h1, h2 := s.hash2(d)
	for i := 0; i < s.k; i++ {
		idx := (h1 + uint64(i)*h2) & s.mask
		s.bits[idx>>6] |= 1 << (idx & 63)
	}
}

// MayContain is the Bloom pre-screen: false means the digest is
// certainly not in the corpus (the no-false-negative guarantee); true
// means it is a member or one of the tuned fraction of false positives.
// Zero allocations — this runs once per candidate on the search hot
// path.
func (s *Set) MayContain(d []byte) bool {
	h1, h2 := s.hash2(d)
	//keyvet:hotloop
	for i := 0; i < s.k; i++ {
		idx := (h1 + uint64(i)*h2) & s.mask
		if s.bits[idx>>6]&(1<<(idx&63)) == 0 {
			return false
		}
	}
	return true
}

// Confirm is the exact path: a binary search over the sorted corpus.
func (s *Set) Confirm(d []byte) bool {
	lo, hi := 0, s.n
	//keyvet:hotloop
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		switch bytes.Compare(s.corpus[mid*s.size:mid*s.size+s.size], d) {
		case -1:
			lo = mid + 1
		case 1:
			hi = mid
		default:
			return true
		}
	}
	return false
}

// Contains is the two-stage membership test, filter ∘ confirm: exact
// (never a false positive, never a false negative), with the confirm
// cost paid only by candidates that pass the filter.
func (s *Set) Contains(d []byte) bool {
	return s.MayContain(d) && s.Confirm(d)
}

// Len returns the corpus cardinality (after deduplication).
func (s *Set) Len() int { return s.n }

// DigestSize returns the digest length in bytes.
func (s *Set) DigestSize() int { return s.size }

// Digest returns the i-th corpus digest in sorted order (a copy).
func (s *Set) Digest(i int) []byte {
	d := make([]byte, s.size)
	copy(d, s.corpus[i*s.size:(i+1)*s.size])
	return d
}

// Bits returns the filter size in bits.
func (s *Set) Bits() uint64 { return s.mask + 1 }

// Hashes returns the probe count k.
func (s *Set) Hashes() int { return s.k }

// Seed returns the probe-hash seed.
func (s *Set) Seed() uint64 { return s.seed }

// FPRequested returns the false-positive rate the set was built for.
func (s *Set) FPRequested() float64 { return s.fpr }

// FPEstimate returns the textbook expected false-positive rate of the
// built geometry, (1 - e^(-kn/m))^k.
func (s *Set) FPEstimate() float64 {
	m := float64(s.mask + 1)
	return math.Pow(1-math.Exp(-float64(s.k)*float64(s.n)/m), float64(s.k))
}

// MeasuredFPR probes the filter with `trials` pseudo-random non-member
// digests (a deterministic splitmix64 stream from rngSeed) and returns
// the observed pass fraction — the number EXPERIMENTS.md records against
// the requested rate.
func (s *Set) MeasuredFPR(trials int, rngSeed uint64) float64 {
	if trials <= 0 {
		return 0
	}
	d := make([]byte, s.size)
	state := rngSeed
	pass := 0
	for t := 0; t < trials; t++ {
		for i := 0; i < s.size; i += 8 {
			state += 0x9e3779b97f4a7c15
			z := state
			z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
			z = (z ^ (z >> 27)) * 0x94d049bb133111eb
			z ^= z >> 31
			for j := 0; j < 8 && i+j < s.size; j++ {
				d[i+j] = byte(z >> (8 * j))
			}
		}
		if !s.MayContain(d) {
			continue
		}
		if s.Confirm(d) {
			t-- // a true member is not a false-positive trial; redraw
			continue
		}
		pass++
	}
	return float64(pass) / float64(trials)
}
