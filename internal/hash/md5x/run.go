package md5x

import (
	"math/bits"

	"keysearch/internal/hash/hostcpu"
	"keysearch/internal/hash/runword"
)

// screenLevel is the screen SearchRun runs: with AVX-512, thirty-two
// candidates per call through screen32; with AVX2 the same thirty-two
// through screen16; otherwise two with screen2. It is set once,
// from the CPUID probe; only tests change it, to run every path the host
// can run.
var screenLevel = hostcpu.Best

// RunSearcher tests whole prefix-major runs against one MD5 target: the
// consecutive keys of one length that share every byte from position k on
// and so differ only in packed word 0 (k ≤ 4). Per run it packs the
// message and builds the ReverseContext once, then enumerates word 0 with
// a runword.Counter — Section V's "next applied to the packed form". In
// vector lanes where the CPU has them, screen32 (AVX-512) or screen16
// (AVX2) generates thirty-two words 0 per call from the counter's block
// form and returns a hit mask; screen2 takes two at a time otherwise and
// for the last n mod 32. Test confirms a surviving lane.
//
// A RunSearcher is not safe for concurrent use; each worker owns one.
type RunSearcher struct {
	target [4]uint32
	ctr    runword.Counter
	block  [16]uint32
	rc     ReverseContext
}

// ScreenKernel names the screen SearchRun runs on this CPU: "avx512x32"
// (screen32, thirty-two candidates per call in ZMM lanes, AVX-512F),
// "avx2x16" (screen16, sixteen at a time in YMM lanes, AVX2) or "go2"
// (screen2, two interleaved scalar lanes).
func ScreenKernel() string {
	switch screenLevel {
	case hostcpu.LevelAVX512:
		return "avx512x32"
	case hostcpu.LevelAVX2:
		return "avx2x16"
	}
	return "go2"
}

// NewRunSearcher builds a run searcher for a raw MD5 digest over the
// given symbols, in digit order (at most 256, no duplicates — a
// keyspace.Charset's). symbols is not copied and must not change.
func NewRunSearcher(digest [Size]byte, symbols []byte) *RunSearcher {
	return &RunSearcher{target: StateWords(digest), ctr: runword.New(symbols, false, 32)}
}

// SearchRun tests the n messages that follow msg in prefix-major order,
// msg included — msg with its first k bytes counted up as little-endian
// digits over the searcher's symbols, first byte fastest — and appends a
// copy of each one hashing to the target to found. The caller guarantees
// that the n messages stay in one run: k ≤ min(4, len(msg)), msg[:k] are
// symbols, and n does not pass the last value of those k digits.
func (s *RunSearcher) SearchRun(msg []byte, k int, n uint64, found [][]byte) [][]byte {
	c := &s.ctr
	c.Seek(msg, k, n)
	if len(msg) > MaxSingleBlockKey {
		return s.searchLong(msg, n, found)
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
	hi, d0 := c.Start(s.block[0])
	if screenLevel != hostcpu.LevelGo && n >= 32 {
		screen := screen16
		if screenLevel == hostcpu.LevelAVX512 {
			screen = screen32
		}
		c.Block()
		var w [32]uint32
		//keyvet:hotloop
		for ; n >= 32; n -= 32 {
			win, high, next, lim := c.Window()
			for hit := screen(&s.rc, &w, (*[32]uint32)(win), high, next, lim); hit != 0; hit &= hit - 1 {
				if l := bits.TrailingZeros(hit); s.rc.Test(w[l]) {
					found = append(found, c.Key(msg, w[l])) //keyvet:allow hotloop (solution copy, as in core.SearchEach)
				}
			}
			c.Advance()
		}
		hi, d0 = c.Unblock()
	}
	tab0 := c.Tab0()
	syms := len(tab0)
	var w [2]uint32
	//keyvet:hotloop
	for ; n >= 2; n -= 2 {
		for l := range w {
			w[l] = hi | tab0[d0]
			if d0++; d0 == syms {
				d0, hi = 0, c.Carry()
			}
		}
		if hit := s.rc.screen2(w[0], w[1]); hit != 0 {
			for l := range w {
				if hit&(1<<l) != 0 && s.rc.Test(w[l]) {
					found = append(found, c.Key(msg, w[l])) //keyvet:allow hotloop (solution copy, as in core.SearchEach)
				}
			}
		}
	}
	//keyvet:hotloop
	for ; n > 0; n-- {
		w0 := hi | tab0[d0]
		if d0++; d0 == syms {
			d0, hi = 0, c.Carry()
		}
		if s.rc.Test(w0) {
			found = append(found, c.Key(msg, w0)) //keyvet:allow hotloop (solution copy, as in core.SearchEach)
		}
	}
	return found
}

// searchLong is SearchRun for a message past one block (a long salt
// suffix): the run's digits counted up in the message bytes themselves,
// every candidate hashed in full.
func (s *RunSearcher) searchLong(msg []byte, n uint64, found [][]byte) [][]byte {
	cand := append([]byte(nil), msg...)
	for ; n > 0; n-- {
		if StateWords(Sum(cand)) == s.target {
			found = append(found, append([]byte(nil), cand...))
		}
		s.ctr.Step(cand)
	}
	return found
}
