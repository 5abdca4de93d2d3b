package keyspace

import (
	"bytes"
	"math/big"
	"testing"
)

var two128 = new(big.Int).Lsh(big.NewInt(1), 128)

func idBig(a ID) *big.Int {
	b := new(big.Int).SetUint64(a.Hi)
	return b.Lsh(b, 64).Or(b, new(big.Int).SetUint64(a.Lo))
}

// wrap reduces v modulo 2^128 and reports whether it was out of range.
func wrap(v *big.Int) (*big.Int, bool) {
	out := v.Sign() < 0 || v.Cmp(two128) >= 0
	return new(big.Int).Mod(v, two128), out
}

// FuzzID checks ID's arithmetic, decimal and byte forms against math/big.
func FuzzID(f *testing.F) {
	f.Add(uint64(0), uint64(0), uint64(0), uint64(0), uint64(1), "0")
	f.Add(^uint64(0), ^uint64(0), uint64(0), uint64(1), uint64(10), "340282366920938463463374607431768211455")
	f.Add(uint64(1), uint64(0), uint64(0), ^uint64(0), ^uint64(0), "340282366920938463463374607431768211456")
	f.Add(uint64(0), ^uint64(0), uint64(1), uint64(0), uint64(3), "-5")
	f.Add(uint64(7), uint64(9), uint64(7), uint64(9), uint64(1e19), "+5")
	f.Add(uint64(0), uint64(0), uint64(0), uint64(0), uint64(2), "")
	f.Add(uint64(0), uint64(0), uint64(0), uint64(0), uint64(2), "000123")
	f.Fuzz(func(t *testing.T, ahi, alo, bhi, blo, v uint64, s string) {
		a, b := ID{ahi, alo}, ID{bhi, blo}
		ab, bb := idBig(a), idBig(b)
		want, wantOver := wrap(new(big.Int).Add(ab, bb))
		if got, over := a.Add(b); idBig(got).Cmp(want) != 0 || over != wantOver {
			t.Errorf("%v + %v = %v, %v; want %v, %v", a, b, got, over, want, wantOver)
		}
		want, wantOver = wrap(new(big.Int).Sub(ab, bb))
		if got, over := a.Sub(b); idBig(got).Cmp(want) != 0 || over != wantOver {
			t.Errorf("%v - %v = %v, %v; want %v, %v", a, b, got, over, want, wantOver)
		}
		if got, want := a.Cmp(b), ab.Cmp(bb); got != want {
			t.Errorf("Cmp(%v, %v) = %d, want %d", a, b, got, want)
		}
		want, wantOver = wrap(new(big.Int).Mul(ab, new(big.Int).SetUint64(v)))
		if got, over := a.Mul64(v); idBig(got).Cmp(want) != 0 || over != wantOver {
			t.Errorf("%v · %d = %v, %v; want %v, %v", a, v, got, over, want, wantOver)
		}
		if v != 0 {
			q, r := new(big.Int).QuoRem(ab, new(big.Int).SetUint64(v), new(big.Int))
			if gq, gr := a.QuoRem64(v); idBig(gq).Cmp(q) != 0 || gr != r.Uint64() {
				t.Errorf("%v / %d = %v r %d; want %v r %v", a, v, gq, gr, q, r)
			}
		}
		if a.IsUint64() != ab.IsUint64() || (a.IsUint64() && a.Uint64() != ab.Uint64()) {
			t.Errorf("%v: IsUint64/Uint64 disagree with big.Int", a)
		}

		if got := a.String(); got != ab.String() {
			t.Errorf("String = %q, want %q", got, ab.String())
		}
		if back, err := ParseID(a.String()); err != nil || back != a {
			t.Errorf("ParseID(%q) = %v, %v", a.String(), back, err)
		}
		ref, refOK := new(big.Int).SetString(s, 10)
		refOK = refOK && s != "" && s[0] != '-' && s[0] != '+' && ref.Cmp(two128) < 0
		if got, err := ParseID(s); (err == nil) != refOK || (refOK && idBig(got).Cmp(ref) != 0) {
			t.Errorf("ParseID(%q) = %v, %v; big.Int reads %v, accept %v", s, got, err, ref, refOK)
		}

		raw := a.AppendBytes(nil)
		if !bytes.Equal(raw, ab.Bytes()) {
			t.Errorf("bytes %x, want %x", raw, ab.Bytes())
		}
		if back, err := IDFromBytes(raw); err != nil || back != a {
			t.Errorf("IDFromBytes(%x) = %v, %v", raw, back, err)
		}
		if _, err := IDFromBytes(append([]byte{1}, make([]byte, 16)...)); err == nil {
			t.Error("17-byte identifier accepted")
		}
	})
}

// TestSizeRangeMatchesBig checks equation (2) summed in 128 bits against
// its closed form in math/big, and that exactly the sums below 2^128 are
// accepted.
func TestSizeRangeMatchesBig(t *testing.T) {
	for n := 1; n <= 256; n++ {
		for k0 := 0; k0 <= MaxKeyLen; k0 += 4 {
			for k := k0 - 1; k <= MaxKeyLen; k++ {
				want := big.NewInt(int64(max(0, k-k0+1)))
				if n > 1 && k >= k0 {
					nn := big.NewInt(int64(n))
					want = new(big.Int).Exp(nn, big.NewInt(int64(k+1)), nil)
					want.Sub(want, new(big.Int).Exp(nn, big.NewInt(int64(k0)), nil))
					want.Quo(want, big.NewInt(int64(n-1)))
				}
				got, ok := SizeRange(n, k0, k)
				if fits := want.Cmp(two128) < 0; ok != fits || (ok && idBig(got).Cmp(want) != 0) {
					t.Fatalf("SizeRange(%d, %d, %d) = %v, %v; want %v", n, k0, k, got, ok, want)
				}
			}
		}
	}
}
