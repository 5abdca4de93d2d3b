package keyspace

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"strconv"
	"strings"
)

// ID is a dense key identifier: an unsigned 128-bit integer held by
// value, Hi the upper and Lo the lower 64 bits. New refuses every space
// whose raw identifiers reach 2^128, so arithmetic on the identifiers of
// a space cannot overflow; the operations that could at the edges where
// untrusted bounds arrive report it.
type ID struct{ Hi, Lo uint64 }

// IDOf returns v as an ID.
func IDOf(v uint64) ID { return ID{Lo: v} }

// IsUint64 reports whether the ID fits in a uint64.
func (a ID) IsUint64() bool { return a.Hi == 0 }

// Uint64 returns the low 64 bits of the ID.
func (a ID) Uint64() uint64 { return a.Lo }

// Cmp returns -1, 0 or +1 as a is less than, equal to or greater than b.
func (a ID) Cmp(b ID) int {
	if c := cmp.Compare(a.Hi, b.Hi); c != 0 {
		return c
	}
	return cmp.Compare(a.Lo, b.Lo)
}

// Add returns a+b modulo 2^128 and whether the sum overflowed.
func (a ID) Add(b ID) (ID, bool) {
	lo, c := bits.Add64(a.Lo, b.Lo, 0)
	hi, c := bits.Add64(a.Hi, b.Hi, c)
	return ID{hi, lo}, c != 0
}

// Sub returns a-b modulo 2^128 and whether it borrowed (b > a).
func (a ID) Sub(b ID) (ID, bool) {
	lo, c := bits.Sub64(a.Lo, b.Lo, 0)
	hi, c := bits.Sub64(a.Hi, b.Hi, c)
	return ID{hi, lo}, c != 0
}

// Mul64 returns a·v modulo 2^128 and whether the product overflowed.
func (a ID) Mul64(v uint64) (ID, bool) {
	carry, lo := bits.Mul64(a.Lo, v)
	over, hi := bits.Mul64(a.Hi, v)
	hi, c := bits.Add64(hi, carry, 0)
	return ID{hi, lo}, over != 0 || c != 0
}

// QuoRem64 returns a/v and a%v. It panics when v is zero.
func (a ID) QuoRem64(v uint64) (ID, uint64) {
	hi, r := bits.Div64(0, a.Hi, v)
	lo, r := bits.Div64(r, a.Lo, v)
	return ID{hi, lo}, r
}

// String formats the ID in decimal.
func (a ID) String() string {
	if a.Hi == 0 {
		return strconv.FormatUint(a.Lo, 10)
	}
	const e19 = 10_000_000_000_000_000_000
	q, r := a.QuoRem64(e19)
	low := strconv.FormatUint(r, 10)
	return q.String() + strings.Repeat("0", 19-len(low)) + low
}

// ParseID parses a decimal ID: digits only, at least one, below 2^128.
func ParseID(s string) (ID, error) {
	if s == "" {
		return ID{}, errors.New("keyspace: empty identifier")
	}
	var id ID
	for i := 0; i < len(s); i++ {
		d := s[i] - '0'
		if d > 9 {
			return ID{}, fmt.Errorf("keyspace: identifier %q is not a decimal integer", s)
		}
		var o1, o2 bool
		id, o1 = id.Mul64(10)
		id, o2 = id.Add(IDOf(uint64(d)))
		if o1 || o2 {
			return ID{}, fmt.Errorf("keyspace: identifier %q is 2^128 or more", s)
		}
	}
	return id, nil
}

// AppendBytes appends the ID's minimal big-endian magnitude to dst, the
// bytes big.Int.Bytes returns: no leading zero byte, and none at all for
// zero.
func (a ID) AppendBytes(dst []byte) []byte {
	var b [16]byte
	binary.BigEndian.PutUint64(b[:8], a.Hi)
	binary.BigEndian.PutUint64(b[8:], a.Lo)
	i := 0
	for i < len(b) && b[i] == 0 {
		i++
	}
	return append(dst, b[i:]...)
}

// IDFromBytes reads a big-endian magnitude, as big.Int.SetBytes does. It
// refuses more than 16 bytes.
func IDFromBytes(b []byte) (ID, error) {
	if len(b) > 16 {
		return ID{}, fmt.Errorf("keyspace: %d-byte identifier exceeds 128 bits", len(b))
	}
	var buf [16]byte
	copy(buf[16-len(b):], b)
	return ID{binary.BigEndian.Uint64(buf[:8]), binary.BigEndian.Uint64(buf[8:])}, nil
}
