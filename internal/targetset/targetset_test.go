package targetset

import (
	"bytes"
	"crypto/md5"
	"encoding/binary"
	"encoding/hex"
	"hash/crc32"
	"math"
	"testing"
)

// testDigests produces n deterministic pseudo-random digests of the
// given size (splitmix64 stream; distinct seeds give disjoint corpora
// with overwhelming probability).
func testDigests(n, size int, seed uint64) [][]byte {
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
			for b := 0; b < 8 && j+b < size; b++ {
				d[j+b] = byte(v >> (8 * b))
			}
		}
		out[i] = d
	}
	return out
}

func TestBuildMembership(t *testing.T) {
	digests := testDigests(1000, 16, 1)
	s, err := Build(digests, Options{FPRate: 1e-3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 1000 {
		t.Fatalf("Len = %d, want 1000", s.Len())
	}
	for i, d := range digests {
		if !s.MayContain(d) {
			t.Fatalf("digest %d: false negative from the filter", i)
		}
		if !s.Confirm(d) {
			t.Fatalf("digest %d: exact index misses a member", i)
		}
		if !s.Contains(d) {
			t.Fatalf("digest %d: Contains misses a member", i)
		}
	}
	for i, d := range testDigests(1000, 16, 2) {
		if s.Confirm(d) {
			t.Fatalf("non-member %d confirmed", i)
		}
		if s.Contains(d) {
			t.Fatalf("non-member %d contained", i)
		}
	}
}

func TestBuildDedup(t *testing.T) {
	digests := testDigests(100, 20, 3)
	doubled := append(append([][]byte{}, digests...), digests...)
	s, err := Build(doubled, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 100 {
		t.Fatalf("Len = %d after dedup, want 100", s.Len())
	}
	// Corpus must come back sorted and unique through the accessor.
	prev := s.Digest(0)
	for i := 1; i < s.Len(); i++ {
		cur := s.Digest(i)
		if bytes.Compare(prev, cur) >= 0 {
			t.Fatalf("corpus not sorted/unique at %d", i)
		}
		prev = cur
	}
}

func TestBuildErrors(t *testing.T) {
	if _, err := Build(nil, Options{}); err == nil {
		t.Error("empty corpus accepted")
	}
	if _, err := Build([][]byte{{1, 2}, {1, 2, 3}}, Options{}); err == nil {
		t.Error("mixed digest sizes accepted")
	}
	if _, err := Build([][]byte{{}}, Options{}); err == nil {
		t.Error("zero-length digest accepted")
	}
	if _, err := Build([][]byte{{1}}, Options{FPRate: 0.9}); err == nil {
		t.Error("rate > 0.5 accepted")
	}
	if _, err := Build([][]byte{{1}}, Options{FPRate: -1}); err == nil {
		t.Error("negative rate accepted")
	}
}

func TestSizeGeometry(t *testing.T) {
	for _, tc := range []struct {
		n int
		p float64
	}{{1, 1e-3}, {1000, 1e-3}, {1000, 1e-6}, {1 << 20, 1e-3}, {10, 0.5}} {
		m, k := Size(tc.n, tc.p)
		if m&(m-1) != 0 || m < 64 {
			t.Errorf("Size(%d, %g): m = %d not a power of two >= 64", tc.n, tc.p, m)
		}
		if k < 1 || k > maxHashes {
			t.Errorf("Size(%d, %g): k = %d outside [1,%d]", tc.n, tc.p, k, maxHashes)
		}
		// The rounded-up geometry must meet the requested rate in
		// expectation.
		est := math.Pow(1-math.Exp(-float64(k)*float64(tc.n)/float64(m)), float64(k))
		if est > tc.p*1.05 {
			t.Errorf("Size(%d, %g): expected rate %g exceeds request", tc.n, tc.p, est)
		}
	}
}

func TestSeedChangesFilter(t *testing.T) {
	digests := testDigests(256, 16, 4)
	a, err := Build(digests, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(digests, Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a.Encode(), b.Encode()) {
		t.Fatal("different seeds produced identical encodings")
	}
	// Both remain exact regardless of seed.
	for _, d := range digests {
		if !a.Contains(d) || !b.Contains(d) {
			t.Fatal("seeded set lost a member")
		}
	}
}

func TestDeterminism(t *testing.T) {
	digests := testDigests(512, 16, 5)
	a, _ := Build(digests, Options{FPRate: 1e-4, Seed: 9})
	// Shuffled input order must not change the canonical encoding.
	shuffled := make([][]byte, len(digests))
	for i, d := range digests {
		shuffled[(i*37)%len(digests)] = d
	}
	b, _ := Build(shuffled, Options{FPRate: 1e-4, Seed: 9})
	ea, eb := a.Encode(), b.Encode()
	if !bytes.Equal(ea, eb) {
		t.Fatal("insertion order leaked into the canonical encoding")
	}
	if ID(ea) != ID(eb) {
		t.Fatal("content IDs differ for identical encodings")
	}
}

func TestCodecRoundTrip(t *testing.T) {
	digests := testDigests(300, 16, 6)
	s, err := Build(digests, Options{FPRate: 1e-3, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	enc := s.Encode()
	back, err := Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back.Encode(), enc) {
		t.Fatal("decode(encode) does not re-encode identically")
	}
	if back.Len() != s.Len() || back.DigestSize() != s.DigestSize() ||
		back.Bits() != s.Bits() || back.Hashes() != s.Hashes() ||
		back.Seed() != s.Seed() || back.FPRequested() != s.FPRequested() {
		t.Fatal("decoded geometry differs")
	}
	for _, d := range digests {
		if !back.Contains(d) {
			t.Fatal("decoded set lost a member")
		}
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	s, err := Build(testDigests(64, 16, 7), Options{})
	if err != nil {
		t.Fatal(err)
	}
	enc := s.Encode()
	if _, err := Decode(enc[:len(enc)-1]); err == nil {
		t.Error("truncated frame accepted")
	}
	if _, err := Decode(enc[:10]); err == nil {
		t.Error("header-only frame accepted")
	}
	for _, off := range []int{0, 4, 5, 6, 8, 20, headerLen, len(enc) - 5} {
		bad := append([]byte(nil), enc...)
		bad[off] ^= 0xff
		if _, err := Decode(bad); err == nil {
			t.Errorf("byte-%d corruption accepted", off)
		}
	}
	// An unsorted corpus with a freshly valid CRC must still be rejected
	// (the canonical-form invariant, not just integrity).
	bad := append([]byte(nil), enc...)
	a := bad[headerLen : headerLen+16]
	b := bad[headerLen+16 : headerLen+32]
	tmp := make([]byte, 16)
	copy(tmp, a)
	copy(a, b)
	copy(b, tmp)
	bad = bad[:len(bad)-4]
	var crc [4]byte
	binary.BigEndian.PutUint32(crc[:], crc32.ChecksumIEEE(bad))
	bad = append(bad, crc[:]...)
	if _, err := Decode(bad); err == nil {
		t.Error("non-canonical (unsorted) corpus accepted despite valid CRC")
	}
}

func TestMeasuredFPRWithinTwiceRequested(t *testing.T) {
	n, trials := 20000, 200000
	if testing.Short() {
		n, trials = 2000, 20000
	}
	for _, req := range []float64{1e-2, 1e-3} {
		s, err := Build(testDigests(n, 16, 8), Options{FPRate: req})
		if err != nil {
			t.Fatal(err)
		}
		got := s.MeasuredFPR(trials, 99)
		if got > 2*req {
			t.Errorf("measured FPR %g exceeds 2x the requested %g (n=%d)", got, req, n)
		}
	}
}

// TestMillionDigestFPR is the acceptance-criteria measurement: on a
// 10^6-digest corpus the measured false-positive rate stays within 2x
// the requested rate.
func TestMillionDigestFPR(t *testing.T) {
	if testing.Short() {
		t.Skip("million-digest corpus")
	}
	const req = 1e-3
	s, err := Build(testDigests(1_000_000, 16, 10), Options{FPRate: req})
	if err != nil {
		t.Fatal(err)
	}
	got := s.MeasuredFPR(500000, 11)
	if got > 2*req {
		t.Errorf("measured FPR %g exceeds 2x the requested %g on a 10^6 corpus", got, req)
	}
	t.Logf("10^6 corpus: m=%d bits, k=%d, requested %g, estimated %g, measured %g",
		s.Bits(), s.Hashes(), req, s.FPEstimate(), got)
}

// TestEncodingGolden pins the corpus encoding and its content address
// against bytes captured before the CRC trailer moved into frame.Seal:
// corpus IDs cross the wire, so masters and workers on either side of
// that change must derive the same one.
func TestEncodingGolden(t *testing.T) {
	const want = "5453455401100f000000000300000000000000073f847ae147ae147b000000010cc175b9c0f1b6a831c399e2697726614a8a08f09d37b73795649038408b5f3392eb5ffee6ae2fec3ad71c777531578f8beb57567aacf57997084054"
	var ds [][]byte
	for _, k := range []string{"a", "b", "c"} {
		sum := md5.Sum([]byte(k))
		ds = append(ds, sum[:])
	}
	set, err := Build(ds, Options{FPRate: 0.01, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	enc := set.Encode()
	if got := hex.EncodeToString(enc); got != want {
		t.Errorf("set encodes to %s, parent wrote %s", got, want)
	}
	if got := ID(enc); got != 0xad0ccb1b5f25e4ef {
		t.Errorf("corpus ID %016x changed", got)
	}
	raw, _ := hex.DecodeString(want)
	if back, err := Decode(raw); err != nil || !bytes.Equal(back.Encode(), raw) {
		t.Errorf("parent's encoding decodes to %v, %v", back, err)
	}
}
