package sha1x

//go:generate go run ./gen

import (
	"fmt"
	"math/bits"

	"keysearch/internal/hash/hostcpu"
	"keysearch/internal/hash/runword"
	"keysearch/internal/targetset"
)

// screenLevel is the kernel SearchRun runs: with AVX-512, sixteen
// candidates per call through screen16Z; with AVX2 through screen16;
// either way finalE takes the last n mod 16, and is the whole loop
// without a vector level. It is set once, from the CPUID probe; only tests
// change it, to run every path the host can run.
var screenLevel = hostcpu.Best

// ScreenKernel names the kernel SearchRun runs on this CPU: "avx512x16"
// (screen16Z, sixteen candidates per call in ZMM lanes, AVX-512F),
// "avx2x16" (screen16, the same in YMM lanes, AVX2) or "go1" (finalE, one
// candidate per call).
func ScreenKernel() string {
	switch screenLevel {
	case hostcpu.LevelAVX512:
		return "avx512x16"
	case hostcpu.LevelAVX2:
		return "avx2x16"
	}
	return "go1"
}

// ExitStep is the last step the run kernel executes: the register it
// writes is the final state's E word after rotl30 and the feed-forward
// addition, since steps 76..79 only shift it along (e80 = rotl30(a75)).
const ExitStep = 75

// w0Rot[t] is the set of rotations of W[0] that schedule word W[t] XORs in.
var w0Rot = W0Rotations()

// W0Rotations splits the message schedule around word 0. Expansion is
// XOR-linear in W[0..15], so W[t] = C[t] ^ L_t(W[0]), where C is the
// expansion of the same block with W[0] = 0 and L_t XORs together the
// rotations rotl(W[0], r) for every bit r set in the returned mask[t].
// Rotating a rotation set by one is rotating its mask, so the masks are
// the expansion of the block whose only term is rotl(W[0], 0).
func W0Rotations() (mask [80]uint32) {
	mask[0] = 1
	Expand(&mask)
	return mask
}

// RunSearcher tests whole prefix-major runs against a target set: the
// consecutive keys of one length that share every byte from position k on
// and so differ only in packed word 0 (k ≤ 4). A single target is a set of
// one. Word 0 is hi | lo, lo the key's first byte and hi the rest, and
// the schedule splits as W[t] = (C[t] ^ L_t(hi)) ^ L_t(lo): per run the
// searcher packs the message and computes C (with K pre-added where W[0]
// does not reach), per value of hi — once every len(symbols) keys — the
// bracket, and per symbol, once, the row of L_t(lo). Per key it counts
// word 0 with a runword.Counter and runs the generated straight-line
// steps 0..75 (finalE), reading each reached schedule word as one XOR of
// the bracket and the row, and probes the E word in the set's word-4
// filter. With AVX2, screen16 (screen16Z with AVX-512) takes sixteen keys
// per call instead: it generates word 0 from the counter's block form,
// runs the same steps in vector lanes, XORing word 0's rotations into C,
// and probes the E words itself, returning a hit mask; finalE takes the
// last n mod 16. A key that passes the probe is hashed in full and must
// pass Set.Contains, the Bloom pre-screen and exact confirm.
//
// A RunSearcher is not safe for concurrent use; each worker owns one.
type RunSearcher struct {
	set           *targetset.Set
	word4         targetset.WordFilter
	fbits         *uint64 // with fmask and fshift, word4's Layout, which the vector kernels probe
	fmask, fshift uint32
	ctr           runword.Counter
	rows          []uint32 // rows[d*w0Reach+j]: L_t of symbol d as the first key byte, t = w0Steps[j]
	block         [16]uint32
	c             [ExitStep + 1]uint32 // the run's schedule with W[0] = 0
	add           [ExitStep + 1]uint32 // per step: C[t] + K, or C[t] ^ L_t(hi) where W[0] reaches
}

// w0Steps lists the steps 1..ExitStep that word 0 reaches, in the order
// of a table row; len(w0Steps) == w0Reach, or initialisation panics.
var w0Steps = func() (steps [w0Reach]int) {
	j := 0
	for t := 1; t <= ExitStep; t++ {
		if w0Rot[t] != 0 {
			steps[j] = t
			j++
		}
	}
	return steps
}()

// NewRunSearcher builds a run searcher for a set of SHA1 digests over the
// given symbols, in digit order (at most 256, no duplicates — a
// keyspace.Charset's). symbols is not copied and must not change; the set
// is shared, read-only.
func NewRunSearcher(set *targetset.Set, symbols []byte) (*RunSearcher, error) {
	word4, ok := set.Word4()
	if !ok || set.DigestSize() != Size {
		return nil, fmt.Errorf("sha1x: target set holds %d-byte digests, want %d", set.DigestSize(), Size)
	}
	bitmap, mask, shift := word4.Layout()
	s := &RunSearcher{set: set, word4: word4, fbits: &bitmap[0], fmask: mask, fshift: shift, ctr: runword.New(symbols, true, 16)}
	s.rows = make([]uint32, len(symbols)*w0Reach)
	for d, lo := range s.ctr.Tab0() {
		for j, t := range w0Steps {
			for m := w0Rot[t]; m != 0; m &= m - 1 {
				s.rows[d*w0Reach+j] ^= bits.RotateLeft32(lo, bits.TrailingZeros32(m))
			}
		}
	}
	return s, nil
}

// SearchRun tests the n messages that follow msg in prefix-major order,
// msg included — msg with its first k bytes counted up as digits over the
// searcher's symbols, first byte fastest — and appends a copy of each one
// whose digest is in the set to found. The caller guarantees that the n
// messages stay in one run: k ≤ min(4, len(msg)), msg[:k] are symbols,
// and n does not pass the last value of those k digits.
func (s *RunSearcher) SearchRun(msg []byte, k int, n uint64, found [][]byte) [][]byte {
	c := &s.ctr
	c.Seek(msg, k, n)
	if len(msg) > MaxSingleBlockKey {
		return s.searchLong(msg, n, found)
	}
	_ = PackKey(msg, &s.block) // cannot fail: the length is checked above
	if k == 0 {
		// The empty key: a run of one whose word 0 is all padding.
		if n == 1 && s.confirm(s.block[0]) {
			found = append(found, append([]byte(nil), msg...))
		}
		return found
	}
	s.split()
	hi, d0 := c.Start(s.block[0])
	if screenLevel != hostcpu.LevelGo && n >= 16 {
		screen := screen16
		if screenLevel == hostcpu.LevelAVX512 {
			screen = screen16Z
		}
		c.Block()
		var w [16]uint32
		//keyvet:hotloop
		for ; n >= 16; n -= 16 {
			win, high, next, lim := c.Window()
			for hit := screen(s, &w, (*[16]uint32)(win), high, next, lim); hit != 0; hit &= hit - 1 {
				if l := bits.TrailingZeros(hit); s.confirm(w[l]) {
					found = append(found, c.Key(msg, w[l])) //keyvet:allow hotloop (solution copy, as in core.SearchEach)
				}
			}
			c.Advance()
		}
		hi, d0 = c.Unblock()
	}
	tab0 := c.Tab0()
	syms := len(tab0)
	rows, word4 := s.rows, s.word4
	// The vector kernels move the high part without refolding the
	// bracket: fold it once for the keys finalE takes.
	s.rehigh(hi)
	//keyvet:hotloop
	for ; n > 0; n-- {
		w0 := hi | tab0[d0]
		if word4.MayContain(s.finalE(w0, (*[w0Reach]uint32)(rows[d0*w0Reach:]))) && s.confirm(w0) {
			found = append(found, c.Key(msg, w0)) //keyvet:allow hotloop (solution copy, as in core.SearchEach)
		}
		if d0++; d0 == syms && n > 1 { // no bracket to fold after the piece's last key
			d0, hi = 0, c.Carry()
			s.rehigh(hi)
		}
	}
	return found
}

// split computes the run's schedule with W[0] = 0 from the packed block,
// and folds K into every step W[0] does not reach; rehigh fills in the
// others.
func (s *RunSearcher) split() {
	var w [80]uint32
	copy(w[1:16], s.block[1:])
	Expand(&w)
	copy(s.c[:], w[:])
	for t := range s.add {
		if w0Rot[t] == 0 {
			s.add[t] = w[t] + K[t/20]
		}
	}
}

// confirm hashes the run's block with word 0 = w0 in full and reports
// whether the digest is in the set.
func (s *RunSearcher) confirm(w0 uint32) bool {
	b := s.block
	b[0] = w0
	d := DigestBytes(SumPacked(&b))
	return s.set.Contains(d[:])
}

// searchLong is SearchRun for a message past one block (a long salt
// suffix): the run's digits counted up in the message bytes themselves,
// every candidate hashed in full.
func (s *RunSearcher) searchLong(msg []byte, n uint64, found [][]byte) [][]byte {
	cand := append([]byte(nil), msg...)
	for ; n > 0; n-- {
		if d := Sum(cand); s.set.Contains(d[:]) {
			found = append(found, append([]byte(nil), cand...))
		}
		s.ctr.Step(cand)
	}
	return found
}
