package cracker

import (
	"fmt"

	"keysearch/internal/hash/md5x"
	"keysearch/internal/hash/sha1x"
	"keysearch/internal/targetset"
)

// NewCorpusKernel builds a kernel that matches any digest in a target-set
// corpus: hash the candidate once, Bloom pre-screen the digest against the
// set's filter, and exact-confirm survivors against the sorted corpus
// index. This is the audit-database shape — thousands to millions of
// unsalted rows cracked in one enumeration pass — where the per-candidate
// cost must stay flat in the corpus size, not grow with it as a loop over
// one searcher per target would.
//
// These per-candidate kernels hash every key in full: the Bloom probe
// needs the complete digest. They serve the MD5 corpus, whose reversal
// needs the one target, and SHA1 corpus jobs the run walk cannot take
// (prefix salts, suffix-major spaces, KernelPlain/KernelNaive); every
// other SHA1 corpus job is searched by CrackInterval's run walk, which
// probes one digest word after step 75 and hashes in full only the keys
// that pass (sha1x.RunSearcher). The returned kernel keeps the packed
// single-block compression — stateful, one reused block per worker — and
// falls back to the streaming hash only for keys past the single-block
// limit.
func NewCorpusKernel(alg Algorithm, set *targetset.Set) (Kernel, error) {
	if set == nil {
		return nil, fmt.Errorf("cracker: nil target set")
	}
	if set.DigestSize() != alg.DigestSize() {
		return nil, fmt.Errorf("cracker: target set holds %d-byte digests, %s produces %d",
			set.DigestSize(), alg, alg.DigestSize())
	}
	switch alg {
	case MD5:
		return &md5CorpusKernel{set: set}, nil
	case SHA1:
		return &sha1CorpusKernel{set: set}, nil
	default:
		return nil, fmt.Errorf("cracker: unsupported algorithm %v", alg)
	}
}

type md5CorpusKernel struct {
	set   *targetset.Set
	block [16]uint32
}

func (k *md5CorpusKernel) Test(key []byte) bool {
	if md5x.PackKey(key, &k.block) != nil {
		d := md5x.Sum(key) // key too long for one block: streaming fallback
		return k.set.Contains(d[:])
	}
	d := md5x.DigestBytes(md5x.SumPacked(&k.block))
	return k.set.Contains(d[:])
}

type sha1CorpusKernel struct {
	set   *targetset.Set
	block [16]uint32
}

func (k *sha1CorpusKernel) Test(key []byte) bool {
	if sha1x.PackKey(key, &k.block) != nil {
		d := sha1x.Sum(key)
		return k.set.Contains(d[:])
	}
	d := sha1x.DigestBytes(sha1x.SumPacked(&k.block))
	return k.set.Contains(d[:])
}

// NewSaltedCorpusKernel wraps a corpus kernel so candidates are salted
// before hashing, for audit corpora whose rows share one site-wide salt.
// (Rows with per-row salts can't share a corpus pass at all — each needs
// its own enumeration, which is the point of salting.)
func NewSaltedCorpusKernel(alg Algorithm, set *targetset.Set, salt Salt) (Kernel, error) {
	inner, err := NewCorpusKernel(alg, set)
	if err != nil {
		return nil, err
	}
	if salt.Empty() {
		return inner, nil
	}
	return &saltedKernel{inner: inner, salt: salt}, nil
}
