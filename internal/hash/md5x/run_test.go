package md5x

import (
	"bytes"
	"crypto/md5"
	"math/rand"
	"slices"
	"testing"

	"keysearch/internal/hash/hostcpu"
	"keysearch/internal/hash/runword"
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
	// past 32, then three, five and six symbols, whose runword blocks
	// (81, 125 and 36 low values) carry into the high part mid-pass, with
	// the key in the last lane before a carry and the first after the
	// table's wrap — six symbols' carry ripples through two positions.
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
	f.Add([]byte("abc"), []byte("cbaaSUFFIX"), uint8(4), uint16(70), uint16(31))
	f.Add([]byte("abcde"), []byte("aaeaSUFFIX"), uint8(4), uint16(64), uint16(24))
	f.Add([]byte("abcde"), []byte("aaeaSUFFIX"), uint8(4), uint16(64), uint16(25))
	f.Add([]byte("abcdef"), []byte("cdfaSUFFIX"), uint8(4), uint16(80), uint16(15))
	f.Add([]byte("abcdef"), []byte("cdfaSUFFIX"), uint8(4), uint16(80), uint16(52))
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

// screens32 are the vector screens, each with the level it needs.
var screens32 = []struct {
	name   string
	level  hostcpu.Level
	screen func(r *ReverseContext, w, win *[32]uint32, hi, next uint32, lim int32) uint
}{
	{"screen16", hostcpu.LevelAVX2, screen16},
	{"screen32", hostcpu.LevelAVX512, screen32},
}

// TestScreen16MatchesScreen2 is the differential test of the vector
// screens: over random templates, targets and word-0 inputs (a random
// window, high parts and carry lane), the words each screen the CPU runs
// stores must be window | high part lane by lane, and its 32-bit mask
// must equal sixteen screen2 calls' on those words and the scalar step-45
// reference. Each trial forces a hit into a chosen lane, cycling through
// all thirty-two, and every other trial copies the word into the same
// lane of the other group — of screen32's two groups of sixteen, or of
// screen16's two of eight: a real preimage (Test accepts it) or a
// collision in rev[0] alone (Test refuses it).
func TestScreen16MatchesScreen2(t *testing.T) {
	if hostcpu.Best == hostcpu.LevelGo {
		t.Skip("no AVX2 on this CPU")
	}
	rng := rand.New(rand.NewSource(28))
	var rc ReverseContext
	for trial := 0; trial < 6000; trial++ {
		var block [16]uint32
		var win, w [32]uint32
		for i := range block {
			block[i] = rng.Uint32()
		}
		for l := range win {
			win[l] = rng.Uint32()
		}
		hi, next, lim := rng.Uint32(), rng.Uint32(), int32(trial%35)
		target := [4]uint32{rng.Uint32(), rng.Uint32(), rng.Uint32(), rng.Uint32()}
		lane := trial % 32
		kind := trial / 32 % 3 // 0: preimage, 1: rev[0] collision, 2: none
		switch trial % 4 {
		case 0: // one high part, so equal windows make equal words
			next = hi
			win[lane^16] = win[lane]
		case 2:
			next = hi
			win[lane^8] = win[lane]
		}
		for l := range w {
			w[l] = win[l] | next
			if int32(l) < lim {
				w[l] = win[l] | hi
			}
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
			var got [32]uint32
			if hit := s.screen(&rc, &got, &win, hi, next, lim); hit != ref || got != w {
				t.Fatalf("trial %d: %s mask %032b, words %08x; reference %032b, %08x", trial, s.name, hit, got, ref, w)
			}
		}
		if kind != 2 && rc.Test(w[lane]) != (kind == 0) {
			t.Fatalf("trial %d: Test(lane %d) = %v for a %s", trial, lane, kind != 0, []string{"preimage", "rev[0] collision"}[kind])
		}
	}
}

// TestScreenWord0MatchesRunword is the oracle of word 0 generated in the
// vector screens: from every low value of the runword block's table, two
// calls advanced as SearchRun advances them — across the table's wrap and
// the high part's carry, which ripples on through a digit at its last
// value — must store exactly the packed word 0 of the test's own
// digit-by-digit count, on every screen the CPU runs, for charsets on both
// sides of the lane count, with four key bytes in word 0 and with three
// and the pad. Past the run's last value the count wraps, as runword's
// does. Two symbols have no block: four positions hold sixteen keys.
func TestScreenWord0MatchesRunword(t *testing.T) {
	if hostcpu.Best == hostcpu.LevelGo {
		t.Skip("no AVX2 on this CPU")
	}
	var rc ReverseContext
	var block [16]uint32
	for _, size := range []int{2, 3, 5, 6, 7, 16, 17, 18, 20, 31, 32, 33, 95} {
		symbols := make([]byte, size)
		for i := range symbols {
			symbols[i] = byte(' ' + i)
		}
		ctr := runword.New(symbols, false, 32)
		m, period := 1, size // the block: the fewest positions with period ≥ 32 keys
		for period < 32 && m < 4 {
			m, period = m+1, period*size
		}
		if period < 32 {
			continue
		}
		for _, k := range []int{4, 3} {
			if m > k {
				continue
			}
			for _, s := range screens32 {
				if s.level > hostcpu.Best {
					continue
				}
				for pos0 := 0; pos0 < period; pos0++ {
					msg := []byte("....TAIL")[:2*k]
					for p, v := 0, pos0; p < k; p++ {
						switch {
						case p < m:
							msg[p] = symbols[v%size]
							v /= size
						case p == m:
							msg[p] = symbols[size-1]
						default:
							msg[p] = symbols[0]
						}
					}
					if k == 3 {
						msg = msg[:3] // the pad is word 0's byte 3
					}
					ctr.Seek(msg, k, 1)
					_ = PackKey(msg, &block)
					ctr.Start(block[0])
					ctr.Block()
					if _, _, _, lim := ctr.Window(); lim != int32(period-pos0) {
						t.Fatalf("%d symbols: Block at %q leaves %d keys before the wrap, want %d", size, msg, lim, period-pos0)
					}
					for call := 0; call < 2; call++ {
						win, high, next, lim := ctr.Window()
						var w [32]uint32
						s.screen(&rc, &w, (*[32]uint32)(win), high, next, lim)
						for l, got := range w {
							i := uint64(32*call + l)
							_ = PackKey(runCandidate(symbols, msg, k, i), &block)
							if got != block[0] {
								t.Fatalf("%s, %d symbols, run from %q: key %d has word 0 %08x, want %08x", s.name, size, msg, i, got, block[0])
							}
						}
						ctr.Advance()
					}
				}
			}
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

func benchmarkSearchRun(b *testing.B, symbols string) {
	s := NewRunSearcher(md5.Sum([]byte("no key")), []byte(symbols))
	msg := []byte("aaaabc")
	run := len(symbols) * len(symbols) * len(symbols) * len(symbols)
	b.ResetTimer()
	for left := b.N; left > 0; left -= run {
		sinkHit += uint(len(s.SearchRun(msg, 4, uint64(min(left, run)), nil)))
	}
}

// BenchmarkSearchRun is the run walk per key over 26 symbols, and
// BenchmarkSearchRun20 over the 20 of the fleet workloads' MD5 jobs.
func BenchmarkSearchRun(b *testing.B)   { benchmarkSearchRun(b, "abcdefghijklmnopqrstuvwxyz") }
func BenchmarkSearchRun20(b *testing.B) { benchmarkSearchRun(b, "abcdefghijklmnopqrst") }

// BenchmarkScreen is the vector screen SearchRun runs, alone, per key:
// one call per 32 keys on a 20-symbol block's table window, with the high
// part counting up per call as it does on the walk. BenchmarkSearchRun20 ÷
// BenchmarkScreen is what the Go around the screen costs.
func BenchmarkScreen(b *testing.B) {
	screen := screen16
	switch screenLevel {
	case hostcpu.LevelGo:
		b.Skip("no vector screen on this CPU")
	case hostcpu.LevelAVX512:
		screen = screen32
	}
	s := NewRunSearcher(md5.Sum([]byte("no key")), []byte("abcdefghijklmnopqrst"))
	msg := []byte("aaaabc")
	s.ctr.Seek(msg, 4, 1)
	_ = PackKey(msg, &s.block)
	s.rc.reset(s.target, &s.block)
	s.ctr.Start(s.block[0])
	s.ctr.Block()
	win, _, _, lim := s.ctr.Window()
	var w [32]uint32
	b.ResetTimer()
	for i := 0; i < b.N; i += 32 {
		hi := uint32(i) << 16 // key bytes 2 and 3
		sinkHit += screen(&s.rc, &w, (*[32]uint32)(win), hi, hi+1<<16, lim)
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
