package md5x

import (
	"bytes"
	"fmt"
)

// RunSearcher tests whole prefix-major runs against one MD5 target: the
// consecutive keys of one length that share every byte from position k on
// and so differ only in packed word 0 (k ≤ 4). Per run it packs the
// message and builds the ReverseContext once, then enumerates word 0 with
// a digit counter over per-position symbol tables — Section V's "next
// applied to the packed form" — and screens two candidates at a time with
// the interleaved screen2, confirming a surviving lane with Test.
//
// A RunSearcher is not safe for concurrent use; each worker owns one.
type RunSearcher struct {
	target  [4]uint32
	symbols []byte
	tab     [4][]uint32 // tab[p][d]: symbol d placed in byte p of word 0
	block   [16]uint32
	rc      ReverseContext
	d       [4]int // digits of the candidate's positions 1..3 (d[0] lives in SearchRun)
	k       int    // positions the counter owns in the current run
	base    uint32 // word 0's bytes at positions ≥ k (the 0x80 pad when the message is shorter than 4)
}

// NewRunSearcher builds a run searcher for a raw MD5 digest over the
// given symbols, in digit order (at most 256, no duplicates — a
// keyspace.Charset's). symbols is not copied and must not change.
func NewRunSearcher(digest [Size]byte, symbols []byte) *RunSearcher {
	s := &RunSearcher{target: StateWords(digest), symbols: symbols}
	words := make([]uint32, len(s.tab)*len(symbols))
	for p := range s.tab {
		s.tab[p] = words[p*len(symbols) : (p+1)*len(symbols)]
		for d, c := range symbols {
			s.tab[p][d] = uint32(c) << (8 * p)
		}
	}
	return s
}

// SearchRun tests the n messages that follow msg in prefix-major order,
// msg included — msg with its first k bytes counted up as little-endian
// digits over the searcher's symbols, first byte fastest — and appends a
// copy of each one hashing to the target to found. The caller guarantees
// that the n messages stay in one run: k ≤ min(4, len(msg)), msg[:k] are
// symbols, and n does not pass the last value of those k digits.
func (s *RunSearcher) SearchRun(msg []byte, k int, n uint64, found [][]byte) [][]byte {
	if k < 0 || k > 4 || k > len(msg) {
		panic(fmt.Sprintf("md5x: run of %d bytes in a %d-byte message", k, len(msg)))
	}
	syms := len(s.symbols)
	span, pos := uint64(1), uint64(0)
	for i := 0; i < k; i++ {
		d := bytes.IndexByte(s.symbols, msg[i])
		if d < 0 {
			panic(fmt.Sprintf("md5x: run byte %q is not a symbol", msg[i]))
		}
		s.d[i] = d
		pos += uint64(d) * span
		span *= uint64(syms)
	}
	if n > span-pos {
		panic(fmt.Sprintf("md5x: %d keys from digit %d of a %d-byte run over %d symbols", n, pos, k, syms))
	}
	if len(msg) > MaxSingleBlockKey {
		return s.searchLong(msg, k, n, found)
	}
	_ = PackKey(msg, &s.block) // cannot fail: the length is checked above
	s.rc.reset(s.target, &s.block)
	if k == 0 {
		// The empty key: a run of one whose word 0 is all padding.
		if n == 1 && s.rc.Test(s.block[0]) {
			found = append(found, append([]byte(nil), msg...))
		}
		return found
	}
	s.k, s.base = k, s.block[0]>>(8*k)<<(8*k)
	hi := s.high()
	tab0 := s.tab[0]
	d0 := s.d[0]
	var w [2]uint32
	//keyvet:hotloop
	for ; n >= 2; n -= 2 {
		for l := range w {
			w[l] = hi | tab0[d0]
			if d0++; d0 == syms {
				d0, hi = 0, s.carry()
			}
		}
		if hit := s.rc.screen2(w[0], w[1]); hit != 0 {
			for l := range w {
				if hit&(1<<l) != 0 && s.rc.Test(w[l]) {
					found = append(found, solution(msg, k, w[l])) //keyvet:allow hotloop (solution copy, as in core.SearchEach)
				}
			}
		}
	}
	//keyvet:hotloop
	for ; n > 0; n-- {
		w0 := hi | tab0[d0]
		if d0++; d0 == syms {
			d0, hi = 0, s.carry()
		}
		if s.rc.Test(w0) {
			found = append(found, solution(msg, k, w0)) //keyvet:allow hotloop (solution copy, as in core.SearchEach)
		}
	}
	return found
}

// high returns word 0 without its byte 0: the counter's positions 1..k-1
// over the bytes the run keeps fixed.
func (s *RunSearcher) high() uint32 {
	w := s.base
	for p := 1; p < s.k; p++ {
		w |= s.tab[p][s.d[p]]
	}
	return w
}

// carry propagates digit 0's wrap into positions 1..k-1 and returns the
// new high part. It never carries out of position k-1: SearchRun's caller
// keeps n inside the run.
func (s *RunSearcher) carry() uint32 {
	for p := 1; p < s.k; p++ {
		if s.d[p]++; s.d[p] < len(s.symbols) {
			break
		}
		s.d[p] = 0
	}
	return s.high()
}

// searchLong is SearchRun for a message past one block (a long salt
// suffix): the run's digits counted up in the message bytes themselves,
// every candidate hashed in full.
func (s *RunSearcher) searchLong(msg []byte, k int, n uint64, found [][]byte) [][]byte {
	cand := append([]byte(nil), msg...)
	for ; n > 0; n-- {
		if StateWords(Sum(cand)) == s.target {
			found = append(found, append([]byte(nil), cand...))
		}
		for p := 0; p < k; p++ {
			if s.d[p]++; s.d[p] < len(s.symbols) {
				cand[p] = s.symbols[s.d[p]]
				break
			}
			s.d[p] = 0
			cand[p] = s.symbols[0]
		}
	}
	return found
}

// solution copies msg with its first k bytes replaced by word 0's.
func solution(msg []byte, k int, w0 uint32) []byte {
	out := append([]byte(nil), msg...)
	for p := 0; p < k; p++ {
		out[p] = byte(w0 >> (8 * p))
	}
	return out
}
