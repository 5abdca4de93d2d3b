package targetset_test

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"sort"
	"testing"

	"keysearch/internal/hash/md5x"
	"keysearch/internal/hash/sha1x"
	"keysearch/internal/targetset"
)

// differentialCase runs one hash function through the differential
// harness: a randomized corpus with planted member digests, a Bloom
// pre-screened search over a candidate key stream, and a brute-force
// linear-scan reference. The two hit sets must be byte-identical.
func differentialCase(t *testing.T, name string, hash func([]byte) []byte, opt targetset.Options) {
	t.Helper()
	const keys = 4096
	candidate := func(i int) []byte { return []byte(fmt.Sprintf("key-%04d", i)) }

	// Plant every 64th candidate's digest; pad the corpus with noise.
	var corpus [][]byte
	var wantHits []string
	for i := 0; i < keys; i += 64 {
		corpus = append(corpus, hash(candidate(i)))
		wantHits = append(wantHits, string(candidate(i)))
	}
	noise := targetset.TestDigests(5000, len(corpus[0]), 0xd1f)
	corpus = append(corpus, noise...)

	s, err := targetset.Build(corpus, opt)
	if err != nil {
		t.Fatal(err)
	}

	// Linear-scan reference: exhaustive digest comparison, no filter.
	refHit := func(d []byte) bool {
		for _, c := range corpus {
			if bytes.Equal(c, d) {
				return true
			}
		}
		return false
	}

	var bloomHits, refHits []string
	for i := 0; i < keys; i++ {
		key := candidate(i)
		d := hash(key)
		if s.Contains(d) {
			bloomHits = append(bloomHits, string(key))
		}
		if refHit(d) {
			refHits = append(refHits, string(key))
		}
	}
	sort.Strings(bloomHits)
	sort.Strings(refHits)
	sort.Strings(wantHits)
	if fmt.Sprint(bloomHits) != fmt.Sprint(refHits) {
		t.Fatalf("%s: Bloom hit set %v differs from linear scan %v", name, bloomHits, refHits)
	}
	if fmt.Sprint(bloomHits) != fmt.Sprint(wantHits) {
		t.Fatalf("%s: hit set %v differs from planted keys %v", name, bloomHits, wantHits)
	}
}

// TestDifferentialSearchers: for each supported hash, the pre-screened
// path returns byte-identical hit sets to the linear scan, both at the
// default rate and with an adversarial filter built to collide (a tiny
// bank at the maximum legal rate, so non-members routinely pass the
// filter and the confirm stage carries the correctness burden alone).
func TestDifferentialSearchers(t *testing.T) {
	hashes := []struct {
		name string
		fn   func([]byte) []byte
	}{
		{"md5x", func(k []byte) []byte { d := md5x.Sum(k); return d[:] }},
		{"sha1x", func(k []byte) []byte { d := sha1x.Sum(k); return d[:] }},
		{"sha256", func(k []byte) []byte { d := sha256.Sum256(k); return d[:] }},
	}
	for _, h := range hashes {
		t.Run(h.name, func(t *testing.T) { differentialCase(t, h.name, h.fn, targetset.Options{FPRate: 1e-3}) })
		t.Run(h.name+"/adversarial", func(t *testing.T) {
			differentialCase(t, h.name, h.fn, targetset.Options{FPRate: 0.5, Seed: 0xbad})
		})
	}
}

// TestAdversarialCollisions builds a deliberately saturated filter and
// verifies the two-stage test stays exact on digests known to collide in
// the filter: false positives of MayContain must be rejected by
// Contains.
func TestAdversarialCollisions(t *testing.T) {
	corpus := targetset.TestDigests(512, 16, 21)
	s, err := targetset.Build(corpus, targetset.Options{FPRate: 0.5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	collisions := 0
	for _, d := range targetset.TestDigests(20000, 16, 22) {
		if s.MayContain(d) && !s.Confirm(d) {
			collisions++
			if s.Contains(d) {
				t.Fatal("filter collision leaked through Contains")
			}
		}
	}
	if collisions == 0 {
		t.Fatal("adversarial rate produced no filter collisions; the test exercises nothing")
	}
	t.Logf("exercised %d filter collisions (rate 0.5 bank)", collisions)
}
