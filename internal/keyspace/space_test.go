package keyspace

import "testing"

var abc = MustCharset("abc")

// TestMappingOne reproduces equation (1) / Figure 1 of the paper:
// [0,1,2,...] -> [ε, a, b, c, aa, ab, ac, ba, bb, ...].
func TestMappingOne(t *testing.T) {
	s := MustNew(abc, 0, 4, SuffixMajor)
	want := []string{"", "a", "b", "c", "aa", "ab", "ac", "ba", "bb", "bc", "ca", "cb", "cc", "aaa"}
	for i, w := range want {
		got, err := s.Key(IDOf(uint64(i)))
		if err != nil {
			t.Fatalf("Key(%d): %v", i, err)
		}
		if string(got) != w {
			t.Errorf("Key(%d) = %q, want %q", i, got, w)
		}
	}
}

// TestMappingFour reproduces equation (4) of the paper:
// [0,1,2,...] -> [ε, a, b, c, aa, ba, ca, ab, bb, ...].
func TestMappingFour(t *testing.T) {
	s := MustNew(abc, 0, 4, PrefixMajor)
	want := []string{"", "a", "b", "c", "aa", "ba", "ca", "ab", "bb", "cb", "ac", "bc", "cc", "aaa"}
	for i, w := range want {
		got, err := s.Key(IDOf(uint64(i)))
		if err != nil {
			t.Fatalf("Key(%d): %v", i, err)
		}
		if string(got) != w {
			t.Errorf("Key(%d) = %q, want %q", i, got, w)
		}
	}
}

func TestSizeRange(t *testing.T) {
	cases := []struct {
		n, k0, k int
		want     int64
	}{
		{3, 0, 0, 1},       // just ε
		{3, 0, 1, 4},       // ε, a, b, c
		{3, 0, 2, 13},      // + 9 two-char keys
		{3, 1, 2, 12},      // without ε
		{3, 2, 2, 9},       // only two-char keys
		{1, 0, 5, 6},       // equation (3): K - K0 + 1
		{1, 3, 5, 3},       // equation (3)
		{10, 1, 3, 1110},   // 10 + 100 + 1000
		{2, 4, 3, 0},       // inverted range
		{26, 1, 4, 475254}, // 26 + 676 + 17576 + 456976
	}
	for _, c := range cases {
		got, ok := SizeRange(c.n, c.k0, c.k)
		if !ok || got != IDOf(uint64(c.want)) {
			t.Errorf("SizeRange(%d, %d, %d) = %v, want %d", c.n, c.k0, c.k, got, c.want)
		}
	}
}

// TestPaperSearchSpaceSizes checks the sizes quoted in the paper's
// introduction: "strings containing at most 8 alphabetic characters (both
// lower and upper case) is ≈ 54,508 billions; with 10 characters it becomes
// ≈ 147,389,520 billions".
func TestPaperSearchSpaceSizes(t *testing.T) {
	s8, _ := SizeRange(52, 1, 8)
	if lo, hi := uint64(54_507e9), uint64(54_509e9); s8.Cmp(IDOf(lo)) < 0 || s8.Cmp(IDOf(hi)) > 0 {
		t.Errorf("|alpha^<=8| = %v, want about 54508e9", s8)
	}
	s10, _ := SizeRange(52, 1, 10)
	if lo, hi := uint64(147_389_519e9), uint64(147_389_521e9); s10.Cmp(IDOf(lo)) < 0 || s10.Cmp(IDOf(hi)) > 0 {
		t.Errorf("|alpha^<=10| = %v, want about 147389520e9", s10)
	}
}

func TestSpaceOffsets(t *testing.T) {
	// Space with minLen 2: id 0 must be the first 2-char key.
	s := MustNew(abc, 2, 3, SuffixMajor)
	got, err := s.Key(ID{})
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "aa" {
		t.Errorf("Key(0) = %q, want \"aa\"", got)
	}
	if s.Size() != IDOf(9+27) {
		t.Errorf("Size = %v, want 36", s.Size())
	}
	last, err := s.Key(IDOf(35))
	if err != nil {
		t.Fatal(err)
	}
	if string(last) != "ccc" {
		t.Errorf("Key(35) = %q, want \"ccc\"", last)
	}
}

func TestKeyOutOfRange(t *testing.T) {
	s := MustNew(abc, 1, 2, SuffixMajor)
	if _, err := s.Key(IDOf(12)); err == nil {
		t.Error("Key(size) should fail")
	}
	if _, err := s.Key(ID{Hi: 1}); err == nil {
		t.Error("Key(2^64) should fail")
	}
}

func TestIDInverse(t *testing.T) {
	for _, order := range []Order{SuffixMajor, PrefixMajor} {
		s := MustNew(abc, 1, 4, order)
		size, _ := s.Size64()
		for i := uint64(0); i < size; i++ {
			key, err := s.Key(IDOf(i))
			if err != nil {
				t.Fatalf("%v Key(%d): %v", order, i, err)
			}
			id, err := s.ID(key)
			if err != nil {
				t.Fatalf("%v ID(%q): %v", order, key, err)
			}
			if id != IDOf(i) {
				t.Fatalf("%v ID(Key(%d)) = %v", order, i, id)
			}
		}
	}
}

func TestID64(t *testing.T) {
	s := MustNew(Lower, 1, 4, PrefixMajor)
	id, err := s.ID([]byte("go"))
	if err != nil || !id.IsUint64() {
		t.Fatal(id, err)
	}
	if got := s.Key64(id.Uint64()); string(got) != "go" {
		t.Errorf("Key64(ID(go)) = %q", got)
	}
}

func TestIDRejectsForeignKeys(t *testing.T) {
	s := MustNew(abc, 1, 3, SuffixMajor)
	for _, bad := range []string{"", "abcd", "xyz", "aZ"} {
		if _, err := s.ID([]byte(bad)); err == nil {
			t.Errorf("ID(%q): want error", bad)
		}
	}
}

func TestNewSpaceErrors(t *testing.T) {
	if _, err := New(nil, 1, 2, SuffixMajor); err == nil {
		t.Error("nil charset: want error")
	}
	if _, err := New(abc, -1, 2, SuffixMajor); err == nil {
		t.Error("negative min: want error")
	}
	if _, err := New(abc, 3, 2, SuffixMajor); err == nil {
		t.Error("inverted range: want error")
	}
	if _, err := New(abc, 1, MaxKeyLen+1, SuffixMajor); err == nil {
		t.Error("over max length: want error")
	}
	if _, err := New(abc, 1, 2, Order(9)); err == nil {
		t.Error("invalid order: want error")
	}
}

func TestUnaryCharset(t *testing.T) {
	one := MustCharset("x")
	s := MustNew(one, 1, 5, SuffixMajor)
	if s.Size() != IDOf(5) {
		t.Fatalf("unary size = %v, want 5", s.Size())
	}
	for i := uint64(0); i < 5; i++ {
		key, err := s.Key(IDOf(i))
		if err != nil {
			t.Fatal(err)
		}
		if len(key) != int(i)+1 {
			t.Errorf("unary Key(%d) = %q", i, key)
		}
	}
}

func TestSize64(t *testing.T) {
	small := MustNew(Lower, 1, 4, SuffixMajor)
	if n, ok := small.Size64(); !ok || n != 475254 {
		t.Errorf("Size64 = %d, %v; want 475254, true", n, ok)
	}
	huge := MustNew(Alnum, 1, 20, SuffixMajor)
	if _, ok := huge.Size64(); ok {
		t.Error("62^<=20 should not fit in uint64")
	}
}

// TestBigIntPath exercises identifiers beyond uint64 — f's 128-bit digit
// loop before its uint64 one — in the 62-symbol, 20-character space of the
// paper's kernel limit.
func TestBigIntPath(t *testing.T) {
	s := MustNew(Alnum, 1, 20, PrefixMajor)
	// An id around 2^119, constructed as size - 12345.
	id, _ := s.Size().Sub(IDOf(12345))
	key, err := s.Key(id)
	if err != nil {
		t.Fatal(err)
	}
	if len(key) != 20 {
		t.Fatalf("key %q has length %d, want 20", key, len(key))
	}
	back, err := s.ID(key)
	if err != nil {
		t.Fatal(err)
	}
	if back != id {
		t.Errorf("ID(Key(%v)) = %v", id, back)
	}
	// Cursor works at big offsets too.
	c, err := NewCursor(s, id)
	if err != nil {
		t.Fatal(err)
	}
	prev := append([]byte(nil), c.Key()...)
	if !c.Next() {
		t.Fatal("Next at big offset failed")
	}
	nextID, err := s.ID(c.Key())
	if err != nil {
		t.Fatal(err)
	}
	if want, _ := id.Add(IDOf(1)); nextID != want {
		t.Errorf("next of %q = %q has id %v, want %v", prev, c.Key(), nextID, want)
	}
}
