package md5x

import (
	"bytes"
	"crypto/md5"
	"math/rand"
	"slices"
	"testing"

	"keysearch/internal/hash/hostcpu"
)

// runCandidate returns the i-th message of the run that starts at msg:
// msg's first k bytes read as little-endian digits over symbols, plus i.
// It is the test's own counter, independent of SearchRun's.
func runCandidate(symbols, msg []byte, k int, i uint64) []byte {
	out := append([]byte(nil), msg...)
	carry := i
	for p := 0; p < k; p++ {
		v := uint64(bytes.IndexByte(symbols, msg[p])) + carry
		out[p] = symbols[v%uint64(len(symbols))]
		carry = v / uint64(len(symbols))
	}
	return out
}

// screenPaths returns every screen level the CPU runs, fastest first:
// screen32 with AVX-512, screen16 with AVX2, and screen2 always.
func screenPaths() []hostcpu.Level { return hostcpu.Levels() }

// FuzzSearchRun checks SearchRun, on each screen the CPU can run,
// against the per-candidate Searcher.Test and against crypto/md5 on random
// templates, run widths, start digits, lengths and symbol sets. The target
// is planted at candidate plant of the run — any lane of a 32-lane pass,
// either lane of a 2-lane group of the n mod 32 tail, or its odd last key
// — or, when plant ≥ n, nowhere.
func FuzzSearchRun(f *testing.F) {
	// Seeds in lanes 0, 1, 6 and 15 of a 32-lane pass, in the odd tail,
	// one miss, one empty key, one short (pad inside word 0), one
	// one-symbol set, one past a single block, then lanes 8 and 23 (the
	// second YMM group) and the 2-lane part of the tail, then lanes 16 and
	// 31 (the second ZMM group) and the 2-lane and odd parts of a tail
	// past 32.
	f.Add([]byte("abcdefghijklmnopqrst"), []byte("aaaaSUFFIX"), uint8(4), uint16(64), uint16(0))
	f.Add([]byte("abcdefghijklmnopqrst"), []byte("taaaSUFFIX"), uint8(4), uint16(64), uint16(1))
	f.Add([]byte("abcdefghijklmnopqrst"), []byte("bcaaSUFFIX"), uint8(4), uint16(65), uint16(6))
	f.Add([]byte("abcdefghijklmnopqrst"), []byte("qrstSUFFIX"), uint8(4), uint16(67), uint16(15))
	f.Add([]byte("abcdefghijklmnopqrst"), []byte("qrstSUFFIX"), uint8(4), uint16(67), uint16(66))
	f.Add([]byte("01"), []byte("0110"), uint8(4), uint16(5), uint16(100))
	f.Add([]byte("xyz"), []byte(""), uint8(0), uint16(1), uint16(0))
	f.Add([]byte("abc"), []byte("ba"), uint8(2), uint16(7), uint16(5))
	f.Add([]byte("z"), []byte("zzzzz"), uint8(4), uint16(1), uint16(0))
	f.Add([]byte("ab"), bytes.Repeat([]byte("a"), 60), uint8(3), uint16(8), uint16(3))
	f.Add([]byte("abcdefghijklmnopqrst"), []byte("aaaaSUFFIX"), uint8(4), uint16(64), uint16(8))
	f.Add([]byte("abcdefghijklmnopqrst"), []byte("ahaaSUFFIX"), uint8(4), uint16(50), uint16(23))
	f.Add([]byte("abcdefghijklmnopqrst"), []byte("qrstSUFFIX"), uint8(4), uint16(67), uint16(65))
	f.Add([]byte("abcdefghijklmnopqrst"), []byte("aaaaSUFFIX"), uint8(4), uint16(64), uint16(16))
	f.Add([]byte("abcdefghijklmnopqrst"), []byte("ahaaSUFFIX"), uint8(4), uint16(50), uint16(31))
	f.Add([]byte("abcdefghijklmnopqrst"), []byte("bcaaSUFFIX"), uint8(4), uint16(45), uint16(40))
	f.Add([]byte("abcdefghijklmnopqrst"), []byte("bcaaSUFFIX"), uint8(4), uint16(45), uint16(44))
	f.Fuzz(func(t *testing.T, symbols, msg []byte, rawK uint8, rawN, plant uint16) {
		symbols = distinct(symbols)
		if len(symbols) == 0 || len(msg) > 80 {
			return
		}
		msg = append([]byte(nil), msg...) // the loop below rewrites it in place
		k := min(int(rawK)%5, len(msg))
		span, pos := uint64(1), uint64(0)
		for p := 0; p < k; p++ {
			d := bytes.IndexByte(symbols, msg[p])
			if d < 0 {
				msg[p] = symbols[int(msg[p])%len(symbols)]
				d = bytes.IndexByte(symbols, msg[p])
			}
			pos += uint64(d) * span
			span *= uint64(len(symbols))
		}
		n := min(uint64(rawN), span-pos, 4096)

		var target [Size]byte
		if uint64(plant) < n {
			target = md5.Sum(runCandidate(symbols, msg, k, uint64(plant)))
		} else {
			target = md5.Sum([]byte("a message no run reaches"))
		}
		per := NewSearcher(target)
		var want [][]byte
		for i := uint64(0); i < n; i++ {
			c := runCandidate(symbols, msg, k, i)
			hit := md5.Sum(c) == target
			if per.Test(c) != hit {
				t.Fatalf("Searcher.Test(%q) = %v, crypto/md5 says %v", c, !hit, hit)
			}
			if hit {
				want = append(want, c)
			}
		}
		defer func() { screenLevel = hostcpu.Best }()
		for _, level := range screenPaths() {
			screenLevel = level
			got := NewRunSearcher(target, symbols).SearchRun(msg, k, n, nil)
			if !slices.EqualFunc(got, want, bytes.Equal) {
				t.Fatalf("%s: SearchRun(%q, k=%d, n=%d) found %q, want %q", ScreenKernel(), msg, k, n, got, want)
			}
		}
	})
}

// distinct drops repeated bytes, keeping first occurrences in order.
func distinct(b []byte) []byte {
	var seen [256]bool
	out := b[:0:0]
	for _, c := range b {
		if !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	}
	return out
}

// TestSearchRunReusesSearcher: one searcher walks consecutive runs of
// different lengths and templates, as a worker goroutine does, and finds
// the planted key in each.
func TestSearchRunReusesSearcher(t *testing.T) {
	defer func() { screenLevel = hostcpu.Best }()
	symbols := []byte("abcdefghij")
	keys := []string{"jihgKEY", "cde", "aaaaLONGER", "j"}
	for _, level := range screenPaths() {
		screenLevel = level
		for _, key := range keys {
			s := NewRunSearcher(md5.Sum([]byte(key)), symbols)
			for _, start := range []string{"aaaaKEY", "aaa", "aaaaLONGER", "a"} {
				k := min(4, len(start))
				span := uint64(1)
				for p := 0; p < k; p++ {
					span *= uint64(len(symbols))
				}
				got := s.SearchRun([]byte(start), k, span, nil)
				want := len(start) == len(key) && start[k:] == key[k:]
				if (len(got) == 1 && string(got[0]) == key) != want || len(got) > 1 {
					t.Errorf("%s: key %q, run from %q: found %q", ScreenKernel(), key, start, got)
				}
			}
		}
	}
}

// TestSearchRunFindsEveryPosition plants the target at each position of a
// 117-key run piece in turn — every lane of three 32-lane passes, the
// 2-lane pairs of the n mod 32 tail and its odd last key — and requires
// SearchRun to find exactly that key on each screen; planted at the two
// keys after the piece, it must find nothing. Seven symbols put digit-0
// carries in the middle of groups.
func TestSearchRunFindsEveryPosition(t *testing.T) {
	defer func() { screenLevel = hostcpu.Best }()
	symbols := []byte("abcdefg")
	msg := []byte("cbaaTAIL")
	const n = 3*32 + 21
	for _, level := range screenPaths() {
		screenLevel = level
		for p := uint64(0); p < n+2; p++ {
			key := runCandidate(symbols, msg, 4, p)
			got := NewRunSearcher(md5.Sum(key), symbols).SearchRun(msg, 4, n, nil)
			if p < n && (len(got) != 1 || !bytes.Equal(got[0], key)) || p >= n && len(got) != 0 {
				t.Errorf("%s: target at position %d of %d (%q): found %q", ScreenKernel(), p, n, key, got)
			}
		}
	}
}

// step45 is the reference for the screens: the register MD5 step 45
// writes for template block with word 0 set to w0.
func step45(block [16]uint32, w0 uint32) uint32 {
	block[0] = w0
	a, b, c, d := iv[0], iv[1], iv[2], iv[3]
	for i := 0; i <= 45; i++ {
		a, b, c, d = Step(i, a, b, c, d, block[MsgIndex(i)])
	}
	return b
}

// screens32 are the vector screens on thirty-two candidates, each with
// the level it needs: two screen16 calls, one per half, or one screen32.
var screens32 = []struct {
	name   string
	level  hostcpu.Level
	screen func(*ReverseContext, *[32]uint32) uint
}{
	{"screen16", hostcpu.LevelAVX2, func(r *ReverseContext, w *[32]uint32) uint {
		return screen16(r, (*[16]uint32)(w[:16])) | screen16(r, (*[16]uint32)(w[16:]))<<16
	}},
	{"screen32", hostcpu.LevelAVX512, screen32},
}

// TestScreen16MatchesScreen2 is the differential test of the vector
// screens: over random templates and targets, the 32-bit mask of each one
// the CPU runs must equal sixteen screen2 calls' and the scalar step-45
// reference, lane by lane. Each trial forces a hit into a chosen lane,
// cycling through all thirty-two, and every other trial copies the word
// into the same lane of the other group — of screen32's two groups of
// sixteen, or of screen16's two of eight: a real preimage (Test accepts
// it) or a collision in rev[0] alone (Test refuses it).
func TestScreen16MatchesScreen2(t *testing.T) {
	if hostcpu.Best == hostcpu.LevelGo {
		t.Skip("no AVX2 on this CPU")
	}
	rng := rand.New(rand.NewSource(28))
	var rc ReverseContext
	for trial := 0; trial < 6000; trial++ {
		var block [16]uint32
		var w [32]uint32
		for i := range block {
			block[i] = rng.Uint32()
		}
		for l := range w {
			w[l] = rng.Uint32()
		}
		target := [4]uint32{rng.Uint32(), rng.Uint32(), rng.Uint32(), rng.Uint32()}
		lane := trial % 32
		kind := trial / 32 % 3 // 0: preimage, 1: rev[0] collision, 2: none
		switch trial % 4 {
		case 0:
			w[lane^16] = w[lane]
		case 2:
			w[lane^8] = w[lane]
		}
		if kind == 0 {
			pre := block
			pre[0] = w[lane]
			target = SumPacked(&pre)
		}
		rc.reset(target, &block)
		if kind == 1 {
			rc.rev[0] = step45(block, w[lane])
		}

		var pairs, ref uint
		for j := 0; j < 32; j += 2 {
			pairs |= rc.screen2(w[j], w[j+1]) << j
		}
		for l, w0 := range w {
			if step45(block, w0) == rc.rev[0] {
				ref |= 1 << l
			}
		}
		if pairs != ref {
			t.Fatalf("trial %d: screen2 %032b, reference %032b", trial, pairs, ref)
		}
		if kind != 2 && ref&(1<<lane) == 0 {
			t.Fatalf("trial %d: hit planted in lane %d, mask %032b", trial, lane, ref)
		}
		for _, s := range screens32 {
			if s.level > hostcpu.Best {
				continue
			}
			if got := s.screen(&rc, &w); got != ref {
				t.Fatalf("trial %d: %s mask %032b, reference %032b", trial, s.name, got, ref)
			}
		}
		if kind != 2 && rc.Test(w[lane]) != (kind == 0) {
			t.Fatalf("trial %d: Test(lane %d) = %v for a %s", trial, lane, kind != 0, []string{"preimage", "rev[0] collision"}[kind])
		}
	}
}

var sinkHit uint

func BenchmarkReverseContextTest(b *testing.B) {
	var block [16]uint32
	_ = PackKey([]byte("keyabc"), &block)
	rc := NewReverseContext(StateWords(md5.Sum([]byte("no key"))), &block)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rc.Test(uint32(i)) {
			sinkHit++
		}
	}
}

func BenchmarkSearchRun(b *testing.B) {
	symbols := []byte("abcdefghijklmnopqrstuvwxyz")
	s := NewRunSearcher(md5.Sum([]byte("no key")), symbols)
	msg := []byte("aaaabc")
	const run = 26 * 26 * 26 * 26
	b.ResetTimer()
	for left := b.N; left > 0; left -= run {
		sinkHit += uint(len(s.SearchRun(msg, 4, uint64(min(left, run)), nil)))
	}
}

// TestScreenKernels logs the screen SearchRun picks on this CPU and runs
// one planted search, the key in the second 32-lane pass, on each level
// hostcpu defines, a subtest per kernel: run with -v, a level the CPU
// cannot run shows as skipped, not as passed.
func TestScreenKernels(t *testing.T) {
	t.Logf("ScreenKernel() = %s (hostcpu.AVX2 %v, hostcpu.AVX512 %v)", ScreenKernel(), hostcpu.AVX2, hostcpu.AVX512)
	defer func() { screenLevel = hostcpu.Best }()
	symbols, msg := []byte("abcdefg"), []byte("cbaaTAIL")
	key := runCandidate(symbols, msg, 4, 37)
	for _, level := range hostcpu.All() {
		screenLevel = level
		t.Run(ScreenKernel(), func(t *testing.T) {
			if level > hostcpu.Best {
				t.Skip("this CPU cannot run it")
			}
			got := NewRunSearcher(md5.Sum(key), symbols).SearchRun(msg, 4, 85, nil)
			if len(got) != 1 || !bytes.Equal(got[0], key) {
				t.Errorf("found %q, want [%s]", got, key)
			}
		})
	}
}
