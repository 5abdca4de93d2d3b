package targetset

import (
	"encoding/binary"
	"math/bits"
	"testing"
	"testing/quick"
)

// TestQuickNoFalseNegatives is the load-bearing Bloom property: any
// digest inserted into a set is reported present by the filter alone,
// for arbitrary corpora, rates and seeds.
func TestQuickNoFalseNegatives(t *testing.T) {
	prop := func(raw [][16]byte, seed uint64, rateSel uint8) bool {
		if len(raw) == 0 {
			return true
		}
		digests := make([][]byte, len(raw))
		for i := range raw {
			digests[i] = raw[i][:]
		}
		rates := []float64{1e-1, 1e-2, 1e-3, 1e-4, 0.5}
		s, err := Build(digests, Options{FPRate: rates[int(rateSel)%len(rates)], Seed: seed})
		if err != nil {
			return false
		}
		for _, d := range digests {
			if !s.MayContain(d) || !s.Confirm(d) || !s.Contains(d) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickContainsIsExact: Contains must agree with the exact index on
// every probe — the filter can only ever add confirm work, never change
// the answer.
func TestQuickContainsIsExact(t *testing.T) {
	prop := func(members, probes [][8]byte, seed uint64) bool {
		if len(members) == 0 {
			return true
		}
		digests := make([][]byte, len(members))
		for i := range members {
			digests[i] = members[i][:]
		}
		s, err := Build(digests, Options{FPRate: 0.5, Seed: seed})
		if err != nil {
			return false
		}
		for _, p := range probes {
			if s.Contains(p[:]) != s.Confirm(p[:]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickCodecRoundTrip: encode/decode is the identity on sets, for
// arbitrary corpora.
func TestQuickCodecRoundTrip(t *testing.T) {
	prop := func(raw [][12]byte, seed uint64) bool {
		if len(raw) == 0 {
			return true
		}
		digests := make([][]byte, len(raw))
		for i := range raw {
			digests[i] = raw[i][:]
		}
		s, err := Build(digests, Options{Seed: seed})
		if err != nil {
			return false
		}
		enc := s.Encode()
		back, err := Decode(enc)
		if err != nil {
			return false
		}
		enc2 := back.Encode()
		if len(enc) != len(enc2) {
			return false
		}
		for i := range enc {
			if enc[i] != enc2[i] {
				return false
			}
		}
		return ID(enc) == ID(enc2)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// word4 reads digest bytes [16:20] as the word the bitmap indexes.
func word4(d []byte) uint32 { return binary.BigEndian.Uint32(d[16:]) }

// TestQuickWord4IsExactSuperset: for arbitrary corpora of 20-byte digests,
// no member's word is ever filtered out, and the filter passes exactly
// the words whose low-bits index and high-bits index each match some
// member's — checked against a linear scan for arbitrary probe words, and
// after an Encode/Decode round trip.
func TestQuickWord4IsExactSuperset(t *testing.T) {
	prop := func(raw [][20]byte, probes []uint32, seed uint64) bool {
		if len(raw) == 0 {
			return true
		}
		digests := make([][]byte, len(raw))
		for i := range raw {
			digests[i] = raw[i][:]
		}
		built, err := Build(digests, Options{Seed: seed})
		if err != nil {
			return false
		}
		decoded, err := Decode(built.Encode())
		if err != nil {
			return false
		}
		for _, s := range []*Set{built, decoded} {
			f, ok := s.Word4()
			if !ok || f.Bits() != word4Bits(s.Len()) {
				return false
			}
			mask, shift := uint32(f.Bits()-1), uint32(32-bits.TrailingZeros64(f.Bits()))
			for _, d := range digests {
				if !f.MayContain(word4(d)) {
					return false
				}
			}
			// Beside the random probes, members' words with their low or
			// their high index changed: one index set, the other likely not.
			near := append([]uint32(nil), probes...)
			for _, d := range digests {
				near = append(near, word4(d)^1, word4(d)^1<<31)
			}
			for _, w := range near {
				// Every index the filter reads may be set by any member's
				// low or high bits: the bitmap is shared.
				set := func(i uint32) bool {
					for _, d := range digests {
						if word4(d)&mask == i || word4(d)>>shift == i {
							return true
						}
					}
					return false
				}
				if f.MayContain(w) != (set(w&mask) && set(w>>shift)) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestWord4CollisionIsConfirmed: a non-member whose word 4 equals a
// member's passes the bitmap — the bitmap alone cannot tell them apart —
// and is then refused by Contains, the Bloom pre-screen and exact confirm.
func TestWord4CollisionIsConfirmed(t *testing.T) {
	corpus := testDigests(1000, 20, 31)
	s, err := Build(corpus, Options{})
	if err != nil {
		t.Fatal(err)
	}
	f, ok := s.Word4()
	if !ok {
		t.Fatal("no word-4 bitmap over 20-byte digests")
	}
	for i, member := range corpus[:50] {
		fake := testDigests(1, 20, uint64(1000+i))[0]
		copy(fake[16:], member[16:])
		if !f.MayContain(word4(fake)) {
			t.Fatalf("digest %x shares word 4 with member %x but missed the bitmap", fake, member)
		}
		if s.Contains(fake) {
			t.Fatalf("non-member %x passed Contains", fake)
		}
		if !s.Contains(member) {
			t.Fatalf("member %x failed Contains", member)
		}
	}
}

// TestWord4Geometry pins the bitmap size rule — 64 bits per digest, a
// power of two in [2^16, 2^24] — and that digests shorter than 20 bytes
// get no bitmap.
func TestWord4Geometry(t *testing.T) {
	for _, c := range []struct {
		n    int
		bits uint64
	}{{1, 1 << 16}, {1000, 1 << 16}, {1025, 1 << 17}, {10000, 1 << 20}, {1 << 18, 1 << 24}, {1000000, 1 << 24}} {
		if got := word4Bits(c.n); got != c.bits {
			t.Errorf("word4Bits(%d) = %d, want %d", c.n, got, c.bits)
		}
	}
	s, err := Build(testDigests(10, 16, 1), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Word4(); ok {
		t.Error("a set of 16-byte digests has a word-4 bitmap")
	}
}
