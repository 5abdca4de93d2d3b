package cracker

import "fmt"

// Salt describes how a salt is combined with the candidate password before
// hashing, the technique the paper's introduction singles out as the one
// that defeats lookup and rainbow tables while leaving brute force intact:
// "the random part of the string (the salt) to be concatenated is known by
// definition", so the search space does not grow. TestSaltingDefeatsTables
// checks both halves of that claim.
type Salt struct {
	// Prefix is prepended to the candidate (hash(salt || password)).
	Prefix []byte
	// Suffix is appended to the candidate (hash(password || salt)).
	Suffix []byte
}

// Empty reports whether no salt is configured.
func (s Salt) Empty() bool { return len(s.Prefix) == 0 && len(s.Suffix) == 0 }

// Apply appends prefix+candidate+suffix to dst and returns the result.
func (s Salt) Apply(dst, candidate []byte) []byte {
	dst = append(dst, s.Prefix...)
	dst = append(dst, candidate...)
	return append(dst, s.Suffix...)
}

// NewSaltedKernel wraps a kernel constructor so candidates are salted
// before testing. With a suffix-only salt and the prefix-major enumeration
// order the inner MD5 kernel's reversal context stays valid across whole
// candidate runs, so the optimization survives salting — the property the
// paper's salting discussion relies on.
func NewSaltedKernel(alg Algorithm, kind KernelKind, target []byte, salt Salt) (Kernel, error) {
	if len(target) != alg.DigestSize() {
		return nil, fmt.Errorf("cracker: target length %d, want %d for %s", len(target), alg.DigestSize(), alg)
	}
	// Long prefixes get the §IV cached-state kernel: the prefix blocks are
	// compressed once, every candidate only hashes its own tail.
	if len(salt.Prefix) >= prefixThreshold {
		switch alg {
		case MD5:
			return newPrefixMD5Kernel(target, salt), nil
		case SHA1:
			return newPrefixSHA1Kernel(target, salt), nil
		}
	}
	inner, err := NewKernel(alg, kind, target)
	if err != nil {
		return nil, err
	}
	if salt.Empty() {
		return inner, nil
	}
	return &saltedKernel{inner: inner, salt: salt}, nil
}

type saltedKernel struct {
	inner Kernel
	salt  Salt
	buf   []byte
}

func (k *saltedKernel) Test(key []byte) bool {
	k.buf = k.salt.Apply(k.buf[:0], key)
	return k.inner.Test(k.buf)
}
