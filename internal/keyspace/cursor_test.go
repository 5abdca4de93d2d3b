package keyspace

import "testing"

// TestCursorMatchesF verifies the defining property of the next operator
// (Figure 2): next(f(i)) == f(i+1), for both enumeration orders.
func TestCursorMatchesF(t *testing.T) {
	for _, order := range []Order{SuffixMajor, PrefixMajor} {
		s := MustNew(abc, 0, 4, order)
		c, err := NewCursor(s, ID{})
		if err != nil {
			t.Fatal(err)
		}
		size, _ := s.Size64()
		for i := uint64(0); i < size; i++ {
			want, err := s.Key(IDOf(i))
			if err != nil {
				t.Fatal(err)
			}
			if string(c.Key()) != string(want) {
				t.Fatalf("%v: cursor at %d = %q, want %q", order, i, c.Key(), want)
			}
			advanced := c.Next()
			if advanced != (i < size-1) {
				t.Fatalf("%v: Next at %d = %v", order, i, advanced)
			}
		}
		if !c.Exhausted() {
			t.Errorf("%v: cursor should be exhausted", order)
		}
		if c.Next() {
			t.Errorf("%v: Next after exhaustion should stay false", order)
		}
	}
}

func TestCursorMinLen(t *testing.T) {
	s := MustNew(abc, 2, 2, SuffixMajor)
	c, err := NewCursor(s, ID{})
	if err != nil {
		t.Fatal(err)
	}
	var seen []string
	for {
		seen = append(seen, string(c.Key()))
		if !c.Next() {
			break
		}
	}
	if len(seen) != 9 {
		t.Fatalf("walked %d keys, want 9: %v", len(seen), seen)
	}
	if seen[0] != "aa" || seen[8] != "cc" {
		t.Errorf("walk = %v", seen)
	}
}

func TestCursorAt(t *testing.T) {
	s := MustNew(abc, 1, 3, SuffixMajor)
	c, err := CursorAt(s, []byte("ac"))
	if err != nil {
		t.Fatal(err)
	}
	if !c.Next() {
		t.Fatal("Next failed")
	}
	if string(c.Key()) != "ba" {
		t.Errorf("next(ac) = %q, want \"ba\"", c.Key())
	}
	if _, err := CursorAt(s, []byte("zz")); err == nil {
		t.Error("CursorAt foreign key: want error")
	}
}

func TestPrefixMajorMutatesPrefixOnly(t *testing.T) {
	// The property the GPU reversal trick relies on: iterating N-1 times
	// from a key aligned on a charset boundary mutates only the first
	// character.
	s := MustNew(Alnum, 8, 8, PrefixMajor)
	c := NewCursor64(s, 0)
	suffix := string(c.Key()[1:])
	for i := 0; i < Alnum.Len()-1; i++ {
		if !c.Next() {
			t.Fatal("unexpected exhaustion")
		}
		if string(c.Key()[1:]) != suffix {
			t.Fatalf("iteration %d mutated the suffix: %q", i, c.Key())
		}
	}
}

func TestCursorIDRoundTrip(t *testing.T) {
	s := MustNew(abc, 1, 3, PrefixMajor)
	c, err := NewCursor(s, IDOf(17))
	if err != nil {
		t.Fatal(err)
	}
	id, err := s.ID(c.Key())
	if err != nil {
		t.Fatal(err)
	}
	if id != IDOf(17) {
		t.Errorf("ID = %v, want 17", id)
	}
}
