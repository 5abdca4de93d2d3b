package keyspace

// This file implements the raw enumeration over *all* strings of a charset
// (any length, including the empty string), exactly as in Figures 1 and 2
// of the paper. Space (space.go) layers the [MinLen, MaxLen] window on top.

// appendRawKey appends f(id) to dst and returns the extended slice,
// following the algorithm of Figure 1 (adapted to the chosen order). Digits
// come off the 128-bit identifier until its high word is zero, and off a
// uint64 from there on, which is every digit in spaces below 2^64.
func appendRawKey(dst []byte, id ID, cs *Charset, order Order) []byte {
	n := uint64(cs.Len())
	start := len(dst)
	var d uint64
	for id.Hi != 0 {
		id, _ = id.Sub(IDOf(1))
		id, d = id.QuoRem64(n)
		// Figure 1 prepends (suffix-major); equation (4) appends instead.
		// We always append and fix up with a reversal for suffix-major,
		// which avoids quadratic behaviour on long keys.
		dst = append(dst, cs.Symbol(int(d)))
	}
	for v := id.Lo; v > 0; v /= n {
		v--
		dst = append(dst, cs.Symbol(int(v%n)))
	}
	if order == SuffixMajor {
		reverseBytes(dst[start:])
	}
	return dst
}

// rawID computes the inverse of appendRawKey: the identifier of key in the
// raw enumeration. Every byte of key must be in cs, and the identifier
// below 2^128, as for any key of a Space.
func rawID(key []byte, cs *Charset, order Order) ID {
	n := uint64(cs.Len())
	var id ID
	for i := range key {
		b := key[i]
		if order == PrefixMajor {
			b = key[len(key)-1-i]
		}
		// id = id*n + (d+1)
		id, _ = id.Mul64(n)
		id, _ = id.Add(IDOf(uint64(cs.Index(b)) + 1))
	}
	return id
}

// nextRaw advances key to its successor in the raw enumeration, following
// Figure 2 (adapted to the chosen order). It mutates key in place when the
// length does not change and returns the possibly re-sliced key. In most
// calls it touches a single byte, which is the property the paper's cost
// model relies on (K_next << K_f).
func nextRaw(key []byte, cs *Charset, order Order) []byte {
	n := cs.Len()
	if order == SuffixMajor {
		for i := len(key) - 1; i >= 0; i-- {
			d := cs.Index(key[i]) + 1
			if d < n {
				key[i] = cs.Symbol(d)
				return key
			}
			key[i] = cs.Symbol(0)
		}
	} else {
		for i := 0; i < len(key); i++ {
			d := cs.Index(key[i]) + 1
			if d < n {
				key[i] = cs.Symbol(d)
				return key
			}
			key[i] = cs.Symbol(0)
		}
	}
	// Every position wrapped: the successor is one character longer, all
	// zero digits. The wrapped positions are already charset[0].
	return append(key, cs.Symbol(0))
}

func reverseBytes(b []byte) {
	for i, j := 0, len(b)-1; i < j; i, j = i+1, j-1 {
		b[i], b[j] = b[j], b[i]
	}
}
