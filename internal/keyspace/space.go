package keyspace

import (
	"errors"
	"fmt"
)

// MaxKeyLen is the maximum supported key length. The paper limits candidate
// keys to 20 characters (Section IV-A); we keep the same bound so that every
// candidate fits in a single 64-byte MD5/SHA1 block after padding.
const MaxKeyLen = 20

// Space is the set of keys over a charset whose length lies in
// [MinLen, MaxLen], enumerated in a fixed Order. Identifiers are dense:
// ids 0 .. Size()-1 map bijectively onto the keys, shortest keys first.
type Space struct {
	cs     *Charset
	minLen int
	maxLen int
	order  Order

	size   ID // total number of keys, equation (2)/(3)
	offset ID // number of raw strings shorter than minLen
}

// New builds a key space. minLen may be 0 (the empty string is then a
// candidate, as in the paper's equation (1) enumeration). It refuses a
// space whose raw identifiers — offset plus size — reach 2^128.
func New(cs *Charset, minLen, maxLen int, order Order) (*Space, error) {
	if cs == nil {
		return nil, errors.New("keyspace: nil charset")
	}
	if !order.Valid() {
		return nil, fmt.Errorf("keyspace: invalid order %d", int(order))
	}
	if minLen < 0 || maxLen < minLen {
		return nil, fmt.Errorf("keyspace: invalid length range [%d, %d]", minLen, maxLen)
	}
	if maxLen > MaxKeyLen {
		return nil, fmt.Errorf("keyspace: max length %d exceeds limit %d", maxLen, MaxKeyLen)
	}
	end, ok := SizeRange(cs.Len(), 0, maxLen)
	if !ok {
		return nil, fmt.Errorf("keyspace: %d symbols at lengths up to %d reach 2^128 identifiers", cs.Len(), maxLen)
	}
	s := &Space{cs: cs, minLen: minLen, maxLen: maxLen, order: order}
	s.offset, _ = SizeRange(cs.Len(), 0, minLen-1)
	s.size, _ = end.Sub(s.offset)
	return s, nil
}

// MustNew is like New but panics on error.
func MustNew(cs *Charset, minLen, maxLen int, order Order) *Space {
	s, err := New(cs, minLen, maxLen, order)
	if err != nil {
		panic(err)
	}
	return s
}

// SizeRange returns the number of strings over an n-symbol charset with
// length in [k0, k], i.e. equation (2) of the paper, or equation (3) when
// n == 1, and false when that number is 2^128 or more. It sums the powers
// N^K0 + ... + N^K rather than evaluate (N^(K+1) - N^K0) / (N - 1), whose
// numerator can overflow when the sum does not.
func SizeRange(n, k0, k int) (ID, bool) {
	var sum ID
	if k < k0 {
		return sum, true
	}
	// A power N^i that overflows has i <= K, and N^K >= N^i is a term:
	// the sum overflows too.
	pow := IDOf(1)
	for i := 0; i <= k; i++ {
		var o1, o2 bool
		if i >= k0 {
			sum, o1 = sum.Add(pow)
		}
		if i < k {
			pow, o2 = pow.Mul64(uint64(n))
		}
		if o1 || o2 {
			return ID{}, false
		}
	}
	return sum, true
}

// Charset returns the space's charset.
func (s *Space) Charset() *Charset { return s.cs }

// MinLen returns the minimum key length.
func (s *Space) MinLen() int { return s.minLen }

// MaxLen returns the maximum key length.
func (s *Space) MaxLen() int { return s.maxLen }

// Order returns the enumeration order.
func (s *Space) Order() Order { return s.order }

// Size returns the number of keys in the space.
func (s *Space) Size() ID { return s.size }

// Size64 returns the number of keys and true when it fits in a uint64.
func (s *Space) Size64() (uint64, bool) { return s.size.Lo, s.size.IsUint64() }

// Contains reports whether key is a member of the space.
func (s *Space) Contains(key []byte) bool {
	return len(key) >= s.minLen && len(key) <= s.maxLen && s.cs.Contains(key)
}

// AppendKey appends the key with the given dense identifier to dst.
// It returns an error if id is out of range.
func (s *Space) AppendKey(dst []byte, id ID) ([]byte, error) {
	if id.Cmp(s.size) >= 0 {
		return dst, fmt.Errorf("keyspace: id %v out of range [0, %v)", id, s.size)
	}
	raw, _ := id.Add(s.offset)
	return appendRawKey(dst, raw, s.cs, s.order), nil
}

// Key returns the key with the given dense identifier.
func (s *Space) Key(id ID) ([]byte, error) {
	return s.AppendKey(nil, id)
}

// Key64 returns the key with identifier id. It panics if id is out of
// range.
func (s *Space) Key64(id uint64) []byte {
	return s.AppendKey64(nil, id)
}

// AppendKey64 appends the key with identifier id to dst. It panics if id
// is out of range.
func (s *Space) AppendKey64(dst []byte, id uint64) []byte {
	dst, err := s.AppendKey(dst, IDOf(id))
	if err != nil {
		panic(err)
	}
	return dst
}

// ID returns the dense identifier of key, or an error if key is not in the
// space.
func (s *Space) ID(key []byte) (ID, error) {
	if !s.Contains(key) {
		return ID{}, fmt.Errorf("keyspace: key %q not in space", key)
	}
	id, _ := rawID(key, s.cs, s.order).Sub(s.offset)
	return id, nil
}

// Whole returns the interval covering the entire space.
func (s *Space) Whole() Interval {
	return Interval{End: s.size}
}

// String describes the space.
func (s *Space) String() string {
	return fmt.Sprintf("keyspace{N=%d len=[%d,%d] %s size=%v}",
		s.cs.Len(), s.minLen, s.maxLen, s.order, s.size)
}
