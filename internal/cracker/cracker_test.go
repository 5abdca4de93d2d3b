package cracker

import (
	"bytes"
	"context"
	"crypto/md5"
	"crypto/sha1"
	"errors"
	"testing"

	"keysearch/internal/core"
	"keysearch/internal/keyspace"
)

func space(t *testing.T, cs *keyspace.Charset, minLen, maxLen int) *keyspace.Space {
	t.Helper()
	s, err := keyspace.New(cs, minLen, maxLen, keyspace.PrefixMajor)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestParseAlgorithm(t *testing.T) {
	for _, c := range []struct {
		in   string
		want Algorithm
		ok   bool
	}{
		{"md5", MD5, true}, {"MD5", MD5, true}, {"sha1", SHA1, true},
		{"SHA-1", SHA1, true}, {"sha256", 0, false}, {"", 0, false},
	} {
		got, err := ParseAlgorithm(c.in)
		if (err == nil) != c.ok || (c.ok && got != c.want) {
			t.Errorf("ParseAlgorithm(%q) = %v, %v", c.in, got, err)
		}
	}
	if MD5.DigestSize() != 16 || SHA1.DigestSize() != 20 {
		t.Error("digest sizes wrong")
	}
	if !MD5.Valid() || Algorithm(99).Valid() {
		t.Error("Valid wrong")
	}
}

func TestHashKeyMatchesStdlib(t *testing.T) {
	key := []byte("hunter2")
	m := md5.Sum(key)
	if !bytes.Equal(MD5.HashKey(key), m[:]) {
		t.Error("MD5.HashKey mismatch")
	}
	s := sha1.Sum(key)
	if !bytes.Equal(SHA1.HashKey(key), s[:]) {
		t.Error("SHA1.HashKey mismatch")
	}
}

// TestCrackEndToEnd cracks real digests over a small space with every
// algorithm and kernel tier.
func TestCrackEndToEnd(t *testing.T) {
	sp := space(t, keyspace.Lower, 1, 3)
	for _, alg := range []Algorithm{MD5, SHA1} {
		for _, kind := range []KernelKind{KernelOptimized, KernelPlain, KernelNaive} {
			password := []byte("fox")
			job := &Job{Algorithm: alg, Target: alg.HashKey(password), Space: sp, Kind: kind}
			res, err := Crack(context.Background(), job, core.Options{Workers: 4, ChunkSize: 512})
			if err != nil {
				t.Fatalf("%v/%v: %v", alg, kind, err)
			}
			if len(res.Solutions) != 1 || string(res.Solutions[0]) != "fox" {
				t.Errorf("%v/%v: solutions = %q", alg, kind, res.Solutions)
			}
		}
	}
}

func TestCrackNotInSpace(t *testing.T) {
	sp := space(t, keyspace.Digits, 1, 3)
	job := &Job{Algorithm: MD5, Target: MD5.HashKey([]byte("abcd")), Space: sp}
	res, err := Crack(context.Background(), job, core.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Solutions) != 0 {
		t.Errorf("found ghost solutions %q", res.Solutions)
	}
	if !res.Exhausted {
		t.Error("should have exhausted the space")
	}
	size, _ := sp.Size64()
	if res.Tested != size {
		t.Errorf("tested %d of %d", res.Tested, size)
	}
}

func TestNewJobHex(t *testing.T) {
	sp := space(t, keyspace.Lower, 1, 2)
	// md5("go")
	job, err := NewJobHex(MD5, "34d1f91fb2e514b8576fab1a75a89a6b", sp)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Crack(context.Background(), job, core.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Solutions) != 1 || string(res.Solutions[0]) != "go" {
		t.Errorf("solutions = %q", res.Solutions)
	}
	if _, err := NewJobHex(MD5, "zz", sp); err == nil {
		t.Error("bad hex: want error")
	}
	if _, err := NewJobHex(MD5, "00ff", sp); err == nil {
		t.Error("short digest: want error")
	}
}

func TestNewKernelErrors(t *testing.T) {
	if _, err := NewKernel(MD5, KernelOptimized, []byte("short")); err == nil {
		t.Error("bad target size: want error")
	}
	if _, err := NewKernel(Algorithm(9), KernelOptimized, make([]byte, 0)); err == nil {
		t.Error("bad algorithm: want error")
	}
}

func TestSaltedKernel(t *testing.T) {
	salt := Salt{Prefix: []byte("pre$"), Suffix: []byte("$suf")}
	password := []byte("pw")
	salted := salt.Apply(nil, password)
	if string(salted) != "pre$pw$suf" {
		t.Fatalf("Apply = %q", salted)
	}
	for _, alg := range []Algorithm{MD5, SHA1} {
		target := alg.HashKey(salted)
		k, err := NewSaltedKernel(alg, KernelOptimized, target, salt)
		if err != nil {
			t.Fatal(err)
		}
		if !k.Test(password) {
			t.Errorf("%v: salted kernel missed the password", alg)
		}
		if k.Test([]byte("pw2")) || k.Test(salted) {
			t.Errorf("%v: salted kernel false positive", alg)
		}
	}
}

func TestSaltedCrackEndToEnd(t *testing.T) {
	sp := space(t, keyspace.Lower, 1, 3)
	salt := Salt{Suffix: []byte("NaCl")}
	target := MD5.HashKey(salt.Apply(nil, []byte("cat")))
	job := &Job{Algorithm: MD5, Target: target, Space: sp, Salt: salt}
	res, err := Crack(context.Background(), job, core.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Solutions) != 1 || string(res.Solutions[0]) != "cat" {
		t.Errorf("solutions = %q", res.Solutions)
	}
}

// TestSaltingDefeatsTables is the introduction's argument for brute force:
// a table precomputed over the space misses a salted digest, while brute
// force with the salt folded into the kernel still finds the key. A
// rainbow table stores a subset of what this full lookup table does, so
// it misses too.
func TestSaltingDefeatsTables(t *testing.T) {
	sp := space(t, keyspace.Lower, 1, 3)
	table := make(map[string]string)
	cur, err := keyspace.NewCursor(sp, keyspace.ID{})
	if err != nil {
		t.Fatal(err)
	}
	for ok := true; ok; ok = cur.Next() {
		table[string(MD5.HashKey(cur.Key()))] = string(cur.Key())
	}
	if n, _ := sp.Size64(); uint64(len(table)) != n {
		t.Fatalf("table holds %d digests for a space of %d keys", len(table), n)
	}
	password := []byte("cat")
	if got := table[string(MD5.HashKey(password))]; got != "cat" {
		t.Fatalf("unsalted lookup = %q, want \"cat\"", got)
	}

	salt := Salt{Suffix: []byte("NaCl4you")}
	salted := MD5.HashKey(salt.Apply(nil, password))
	if got, ok := table[string(salted)]; ok {
		t.Errorf("lookup table inverted a salted digest to %q", got)
	}
	job := &Job{Algorithm: MD5, Target: salted, Space: sp, Salt: salt}
	res, err := Crack(context.Background(), job, core.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Solutions) != 1 || string(res.Solutions[0]) != "cat" {
		t.Errorf("salted brute force found %q, want [cat]", res.Solutions)
	}
}

func TestCrackAllFindsEveryPreimage(t *testing.T) {
	sp := space(t, keyspace.Lower, 1, 2)
	// Target hashed from a key inside the space; CrackAll must not stop at
	// the first hit even though MaxSolutions defaults to 1 in Crack.
	job := &Job{Algorithm: MD5, Target: MD5.HashKey([]byte("ab")), Space: sp}
	res, err := CrackAll(context.Background(), job, sp.Whole(), core.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Exhausted {
		t.Error("CrackAll must exhaust the interval")
	}
	if len(res.Solutions) != 1 {
		t.Errorf("solutions = %q", res.Solutions)
	}
}

func BenchmarkCrackMD5Optimized(b *testing.B) {
	benchCrack(b, MD5, KernelOptimized)
}

func BenchmarkCrackMD5Plain(b *testing.B) {
	benchCrack(b, MD5, KernelPlain)
}

func BenchmarkCrackMD5Naive(b *testing.B) {
	benchCrack(b, MD5, KernelNaive)
}

func BenchmarkCrackSHA1Optimized(b *testing.B) {
	benchCrack(b, SHA1, KernelOptimized)
}

func benchCrack(b *testing.B, alg Algorithm, kind KernelKind) {
	sp, err := keyspace.New(keyspace.Lower, 4, 4, keyspace.PrefixMajor)
	if err != nil {
		b.Fatal(err)
	}
	job := &Job{Algorithm: alg, Target: alg.HashKey([]byte("none")), Space: sp, Kind: kind}
	factory, err := job.TestFactory()
	if err != nil {
		b.Fatal(err)
	}
	test := factory()
	enum := core.NewKeyEnumerator(sp)
	if err := enum.Seek(keyspace.ID{}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		test(enum.Candidate())
		if !enum.Next() {
			enum.Seek(keyspace.ID{})
		}
	}
}

// TestLongPrefixKernel exercises the §IV cached-prefix-state path: the
// salt prefix spans multiple blocks, is compressed once, and every
// candidate only hashes its own tail.
func TestLongPrefixKernel(t *testing.T) {
	longPrefix := bytes.Repeat([]byte("block-of-salt-64"), 9) // 144 bytes
	salt := Salt{Prefix: longPrefix, Suffix: []byte("#end")}
	password := []byte("pw")
	for _, alg := range []Algorithm{MD5, SHA1} {
		target := alg.HashKey(salt.Apply(nil, password))
		k, err := NewSaltedKernel(alg, KernelOptimized, target, salt)
		if err != nil {
			t.Fatal(err)
		}
		switch alg {
		case MD5:
			if _, ok := k.(*prefixMD5Kernel); !ok {
				t.Errorf("md5: kernel type %T, want cached-prefix", k)
			}
		case SHA1:
			if _, ok := k.(*prefixSHA1Kernel); !ok {
				t.Errorf("sha1: kernel type %T, want cached-prefix", k)
			}
		}
		if !k.Test(password) {
			t.Errorf("%v: cached-prefix kernel missed the password", alg)
		}
		for _, bad := range []string{"pW", "pwd", "", "x"} {
			if k.Test([]byte(bad)) {
				t.Errorf("%v: false positive for %q", alg, bad)
			}
		}
	}
}

// TestLongPrefixCrackEndToEnd cracks through the cached-prefix path.
func TestLongPrefixCrackEndToEnd(t *testing.T) {
	sp := space(t, keyspace.Lower, 1, 3)
	salt := Salt{Prefix: bytes.Repeat([]byte("A"), 100)}
	target := SHA1.HashKey(salt.Apply(nil, []byte("owl")))
	job := &Job{Algorithm: SHA1, Target: target, Space: sp, Salt: salt}
	res, err := Crack(context.Background(), job, core.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Solutions) != 1 || string(res.Solutions[0]) != "owl" {
		t.Errorf("solutions = %q", res.Solutions)
	}
}

func BenchmarkLongPrefixCached(b *testing.B) {
	salt := Salt{Prefix: bytes.Repeat([]byte("p"), 512)}
	target := MD5.HashKey(salt.Apply(nil, []byte("none")))
	k, err := NewSaltedKernel(MD5, KernelOptimized, target, salt)
	if err != nil {
		b.Fatal(err)
	}
	key := []byte("candidate")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.Test(key)
	}
}

func BenchmarkLongPrefixNaiveRehash(b *testing.B) {
	salt := Salt{Prefix: bytes.Repeat([]byte("p"), 512)}
	target := MD5.HashKey(salt.Apply(nil, []byte("none")))
	inner, err := NewKernel(MD5, KernelNaive, target)
	if err != nil {
		b.Fatal(err)
	}
	k := &saltedKernel{inner: inner, salt: salt}
	key := []byte("candidate")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.Test(key)
	}
}

// TestTuneFailsClosed: a probe that did not run is not a sample. Tune used
// to turn a failed or cancelled search into a fake one-hour measurement and
// return {MinBatch: 8192, Throughput: 2.28} as a success — a non-zero share
// once it reaches the balance rule.
func TestTuneFailsClosed(t *testing.T) {
	job := &Job{Algorithm: MD5, Target: MD5.HashKey([]byte("zzzz")), Space: space(t, keyspace.Lower, 1, 4)}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if tn, err := Tune(ctx, job, 1, 0); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled Tune = %+v, %v; want context.Canceled", tn, err)
	}
	if tn, err := Tune(context.Background(), job, 1, 0); err != nil || tn.MinBatch == 0 || tn.Throughput <= 0 {
		t.Errorf("live Tune = %+v, %v", tn, err)
	}
}
