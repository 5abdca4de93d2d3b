package sha1x

import (
	"bytes"
	"crypto/sha1"
	"encoding/binary"
	"math/rand"
	"slices"
	"testing"

	"keysearch/internal/hash/hostcpu"
	"keysearch/internal/targetset"
)

// TestW0RotationsSplitSchedule: for random blocks, every expanded word is
// the expansion with word 0 zeroed, XORed with the rotations of word 0 the
// masks name — the identity the run kernels compute W[t] from.
func TestW0RotationsSplitSchedule(t *testing.T) {
	rot := W0Rotations()
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		var full, zero [80]uint32
		for j := 0; j < 16; j++ {
			full[j] = rng.Uint32()
		}
		zero = full
		zero[0] = 0
		Expand(&full)
		Expand(&zero)
		x := full[0]
		for tt := range full {
			want := zero[tt]
			for r := 0; r < 32; r++ {
				if rot[tt]&(1<<r) != 0 {
					want ^= x<<r | x>>(32-r)
				}
			}
			if full[tt] != want {
				t.Fatalf("block %d: W[%d] = %08x, split gives %08x", i, tt, full[tt], want)
			}
		}
	}
}

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

// screenPaths returns every kernel level the CPU runs, fastest first:
// screen16Z with AVX-512, screen16 with AVX2, and finalE alone always.
func screenPaths() []hostcpu.Level { return hostcpu.Levels() }

// FuzzSearchRun checks SearchRun, on each kernel the CPU can run, against
// per-candidate crypto/sha1 and a linear scan of the corpus on random
// templates, run widths, start digits, lengths and symbol sets. Two
// digests are planted, at candidates plant and plant2 of the run — any
// lane of a 16-key screen (of either 8-lane group on YMM, of the one
// 16-lane group on ZMM), the n mod 16 tail, the
// first or last key before a carry among them, nowhere when ≥ n — beside
// a decoy whose bytes [16:20] equal the word of candidate decoy, so that
// candidate passes the word-4 filter and must be turned away by the
// full-digest confirm.
func FuzzSearchRun(f *testing.F) {
	// Plants at both ends of a digit-0 cycle and across carries, one
	// miss, one empty key, one short (pad inside word 0), one one-symbol
	// set, one past a single block, then lanes 8, 15 and 23 (the second
	// group) and the tail, with the decoy in the other group, then three,
	// five and six symbols, whose runword blocks (27, 25 and 36 low values)
	// carry into the high part mid-call, with the digests in the last lane
	// before a carry and the first after the table's wrap — six symbols'
	// carry ripples through two positions.
	f.Add([]byte("abcdefghijklmnopqrst"), []byte("aaaaSUFFIX"), uint8(4), uint16(64), uint16(0), uint16(1), uint16(2))
	f.Add([]byte("abcdefghijklmnopqrst"), []byte("taaaSUFFIX"), uint8(4), uint16(64), uint16(1), uint16(62), uint16(63))
	f.Add([]byte("abcdefghijklmnopqrst"), []byte("bcaaSUFFIX"), uint8(4), uint16(65), uint16(6), uint16(64), uint16(7))
	f.Add([]byte("abcdefghijklmnopqrst"), []byte("qrstSUFFIX"), uint8(4), uint16(67), uint16(15), uint16(66), uint16(3))
	f.Add([]byte("abcdefghijklmnopqrst"), []byte("qrstSUFFIX"), uint8(4), uint16(67), uint16(66), uint16(999), uint16(999))
	f.Add([]byte("01"), []byte("0110"), uint8(4), uint16(5), uint16(100), uint16(4), uint16(0))
	f.Add([]byte("xyz"), []byte(""), uint8(0), uint16(1), uint16(0), uint16(1), uint16(0))
	f.Add([]byte("abc"), []byte("ba"), uint8(2), uint16(7), uint16(5), uint16(6), uint16(1))
	f.Add([]byte("z"), []byte("zzzzz"), uint8(4), uint16(1), uint16(0), uint16(0), uint16(0))
	f.Add([]byte("ab"), bytes.Repeat([]byte("a"), 60), uint8(3), uint16(8), uint16(3), uint16(7), uint16(2))
	f.Add([]byte("abcdefghijklmnopqrst"), []byte("aaaaSUFFIX"), uint8(4), uint16(64), uint16(8), uint16(15), uint16(7))
	f.Add([]byte("abcdefghijklmnopqrst"), []byte("ahaaSUFFIX"), uint8(4), uint16(50), uint16(23), uint16(49), uint16(24))
	f.Add([]byte("wxyz"), []byte("xwwwSUFFIX"), uint8(4), uint16(37), uint16(32), uint16(36), uint16(9))
	f.Add([]byte("abc"), []byte("cbaaSUFFIX"), uint8(4), uint16(64), uint16(21), uint16(22), uint16(40))
	f.Add([]byte("abcde"), []byte("ecaaSUFFIX"), uint8(4), uint16(64), uint16(10), uint16(11), uint16(35))
	f.Add([]byte("abcdef"), []byte("cdfaSUFFIX"), uint8(4), uint16(64), uint16(15), uint16(16), uint16(52))
	f.Fuzz(func(t *testing.T, symbols, msg []byte, rawK uint8, rawN, plant, plant2, decoy uint16) {
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

		miss := sha1.Sum([]byte("a message no run reaches"))
		corpus := [][]byte{miss[:]}
		for _, i := range []uint16{plant, plant2} {
			if uint64(i) < n {
				d := sha1.Sum(runCandidate(symbols, msg, k, uint64(i)))
				corpus = append(corpus, d[:])
			}
		}
		if uint64(decoy) < n {
			d := sha1.Sum(runCandidate(symbols, msg, k, uint64(decoy)))
			fake := append([]byte(nil), miss[:16]...)
			corpus = append(corpus, binary.BigEndian.AppendUint32(fake, binary.BigEndian.Uint32(d[16:])))
		}
		set, err := targetset.Build(corpus, targetset.Options{})
		if err != nil {
			t.Fatal(err)
		}
		var want [][]byte
		for i := uint64(0); i < n; i++ {
			c := runCandidate(symbols, msg, k, i)
			d := sha1.Sum(c)
			for _, m := range corpus {
				if bytes.Equal(d[:], m) {
					want = append(want, c)
					break
				}
			}
		}
		defer func() { screenLevel = hostcpu.Best }()
		for _, level := range screenPaths() {
			screenLevel = level
			s, err := NewRunSearcher(set, symbols)
			if err != nil {
				t.Fatal(err)
			}
			if got := s.SearchRun(msg, k, n, nil); !slices.EqualFunc(got, want, bytes.Equal) {
				t.Fatalf("%s: SearchRun(%q, k=%d, n=%d) found %q, want %q", ScreenKernel(), msg, k, n, got, want)
			}
		}
	})
}

// TestFinalEMatchesDigestWord: the generated kernel, fed the bracket
// rehigh folds for word 0's high bytes and the table row of its first
// byte, returns word 4 of the digest — crypto/sha1's bytes [16:20] — on
// random templates of every single-block length and random first bytes
// (every byte is a symbol here, so row d is byte d's).
func TestFinalEMatchesDigestWord(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	set, err := targetset.Build([][]byte{make([]byte, Size)}, targetset.Options{})
	if err != nil {
		t.Fatal(err)
	}
	symbols := make([]byte, 256)
	for i := range symbols {
		symbols[i] = byte(i)
	}
	s, err := NewRunSearcher(set, symbols)
	if err != nil {
		t.Fatal(err)
	}
	for n := 1; n <= MaxSingleBlockKey; n++ {
		for rep := 0; rep < 4; rep++ {
			key := make([]byte, n)
			rng.Read(key)
			if err := PackKey(key, &s.block); err != nil {
				t.Fatal(err)
			}
			s.split()
			s.rehigh(s.block[0] &^ 0xff000000)
			d := sha1.Sum(key)
			got := s.finalE(s.block[0], (*[w0Reach]uint32)(s.rows[int(key[0])*w0Reach:]))
			if want := binary.BigEndian.Uint32(d[16:]); got != want {
				t.Fatalf("key %x: finalE %08x, want %08x", key, got, want)
			}
		}
	}
}

// TestSearchRunReusesSearcher: one searcher walks consecutive runs of
// different lengths and templates, as a worker goroutine does, and finds
// each planted key of a corpus exactly where it lies, on each kernel.
func TestSearchRunReusesSearcher(t *testing.T) {
	defer func() { screenLevel = hostcpu.Best }()
	symbols := []byte("abcdefghij")
	keys := []string{"jihgKEY", "cde", "aaaaLONGER", "j"}
	var corpus [][]byte
	for _, key := range keys {
		d := sha1.Sum([]byte(key))
		corpus = append(corpus, d[:])
	}
	set, err := targetset.Build(corpus, targetset.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, level := range screenPaths() {
		screenLevel = level
		s, err := NewRunSearcher(set, symbols)
		if err != nil {
			t.Fatal(err)
		}
		for i, start := range []string{"aaaaKEY", "aaa", "aaaaLONGER", "a"} {
			k := min(4, len(start))
			span := uint64(1)
			for p := 0; p < k; p++ {
				span *= uint64(len(symbols))
			}
			got := s.SearchRun([]byte(start), k, span, nil)
			if len(got) != 1 || string(got[0]) != keys[i] {
				t.Errorf("%s: run from %q: found %q, want [%s]", ScreenKernel(), start, got, keys[i])
			}
		}
	}
}

// TestSearchRunFindsEveryPosition plants a digest at each position of a
// 53-key run piece in turn — every lane of both groups of three 16-key
// screens and each key of the n mod 16 tail — beside a decoy sharing
// digest bytes [16:20] with the key five positions on (it passes the
// word-4 filter and must fail the confirm), and requires SearchRun to find
// exactly the planted key on each kernel; planted past the piece, it must
// find nothing. Seven and four symbols put several digit-0 carries inside
// one group, and both pieces start where their n mod 16 tail begins right
// after a carry.
func TestSearchRunFindsEveryPosition(t *testing.T) {
	defer func() { screenLevel = hostcpu.Best }()
	const n = 3*16 + 5
	miss := sha1.Sum([]byte("a message no run reaches"))
	for _, tc := range []struct{ symbols, msg string }{
		{"abcdefg", "bcaaTAIL"}, // digit 0 starts at 1: key 48 is digit 0 again
		{"wxyz", "wxywTAIL"},
	} {
		symbols, msg := []byte(tc.symbols), []byte(tc.msg)
		for _, level := range screenPaths() {
			screenLevel = level
			for p := uint64(0); p < n+2; p++ {
				key := runCandidate(symbols, msg, 4, p)
				d := sha1.Sum(key)
				decoy := sha1.Sum(runCandidate(symbols, msg, 4, (p+5)%n))
				fake := append(miss[:16:16], decoy[16:]...)
				set, err := targetset.Build([][]byte{d[:], fake}, targetset.Options{})
				if err != nil {
					t.Fatal(err)
				}
				s, err := NewRunSearcher(set, symbols)
				if err != nil {
					t.Fatal(err)
				}
				got := s.SearchRun(msg, 4, n, nil)
				if p < n && (len(got) != 1 || !bytes.Equal(got[0], key)) || p >= n && len(got) != 0 {
					t.Errorf("%s: %s from %q, digest at position %d of %d (%q): found %q", ScreenKernel(), tc.symbols, msg, p, n, key, got)
				}
			}
		}
	}
}

// screens16 are the 16-lane kernels, each with the level it needs.
var screens16 = []struct {
	name   string
	level  hostcpu.Level
	screen func(s *RunSearcher, w, win *[16]uint32, hi, next uint32, lim int32) uint
}{
	{"screen16", hostcpu.LevelAVX2, screen16},
	{"screen16Z", hostcpu.LevelAVX512, screen16Z},
}

// TestScreen16MatchesFinalE is the differential test of the vector
// kernels: on random blocks and word-0 inputs (a random window, high parts
// and carry lane), the words each kernel the CPU runs stores must be
// window | high part lane by lane, and bit l of its hit mask must be
// exactly word4.MayContain of finalE on w[l] (fed the bracket of w[l]'s
// high bytes and the row of its first byte, every byte a symbol), which
// must equal word 4 of SumPacked. It runs with a 2^16-bit and a 2^24-bit
// bitmap; two lanes per trial have their E word in the corpus, so they
// must hit, and every eighth trial adds a third, a word whose low or high
// probe index lands in the bitmap's last 32-bit word. Every other trial
// copies a lane's word into the same lane of screen16's other group.
func TestScreen16MatchesFinalE(t *testing.T) {
	if hostcpu.Best == hostcpu.LevelGo {
		t.Skip("no AVX2 on this CPU")
	}
	symbols := make([]byte, 256)
	for i := range symbols {
		symbols[i] = byte(i)
	}
	type trial struct {
		block, win, w, e [16]uint32
		hi, next         uint32
		lim              int32
		planted          uint
	}
	for _, logBits := range []uint{16, 24} {
		top := uint32(1)<<logBits - 32 // the first index in the bitmap's last 32-bit word
		mask, shift := uint32(1)<<logBits-1, 32-uint32(logBits)
		rng := rand.New(rand.NewSource(30 + int64(logBits)))
		one, err := targetset.Build([][]byte{make([]byte, Size)}, targetset.Options{})
		if err != nil {
			t.Fatal(err)
		}
		s, err := NewRunSearcher(one, symbols)
		if err != nil {
			t.Fatal(err)
		}
		finalE := func(x uint32) uint32 {
			s.rehigh(x &^ 0xff000000)
			return s.finalE(x, (*[w0Reach]uint32)(s.rows[int(x>>24)*w0Reach:]))
		}
		var corpus [][]byte
		plant := func(e uint32) {
			d := make([]byte, Size)
			rng.Read(d[:16])
			corpus = append(corpus, binary.BigEndian.AppendUint32(d[:16], e))
		}
		// Two words whose E probes the bitmap's last 32-bit word, by its low
		// index and by its high one, on one block: found once (about 2^19
		// tries each at 2^24 bits), placed in every eighth trial.
		var edgeBlock [16]uint32
		for j := range edgeBlock {
			edgeBlock[j] = rng.Uint32()
		}
		s.block = edgeBlock
		s.split()
		var edge [2]uint32
		for j := range edge {
			for {
				x := rng.Uint32()
				if e := finalE(x); j == 0 && e&mask >= top || j == 1 && e>>shift >= top {
					edge[j] = x
					break
				}
			}
		}
		trials := make([]trial, 400) // ≈ 2 planted each: at most 1024 digests keep 2^16 bits
		for i := range trials {
			tr := &trials[i]
			for j := range tr.block {
				tr.block[j] = rng.Uint32()
			}
			for l := range tr.win {
				tr.win[l] = rng.Uint32()
			}
			tr.hi, tr.next, tr.lim = rng.Uint32(), rng.Uint32(), int32(i%18)
			edgeLane := -1
			switch {
			case i%8 == 0:
				tr.block, tr.hi, tr.next = edgeBlock, 0, 0
				edgeLane = i / 8 % 16
				tr.win[edgeLane] = edge[i/8%2]
			case i%2 == 1:
				lane := i / 2 % 16
				tr.next = tr.hi
				tr.win[lane^8] = tr.win[lane]
			}
			s.block = tr.block
			s.split()
			for l := range tr.w {
				tr.w[l] = tr.win[l] | tr.next
				if int32(l) < tr.lim {
					tr.w[l] = tr.win[l] | tr.hi
				}
				block := tr.block
				block[0] = tr.w[l]
				sum := SumPacked(&block)
				if tr.e[l] = finalE(tr.w[l]); tr.e[l] != sum[4] {
					t.Fatalf("trial %d, lane %d (w0 %08x): finalE %08x, SumPacked word 4 %08x", i, l, tr.w[l], tr.e[l], sum[4])
				}
			}
			tr.planted = 1<<(i%16) | 1<<((7*i+3)%16)
			if edgeLane >= 0 {
				tr.planted |= 1 << edgeLane
			}
			for l := range tr.e {
				if tr.planted&(1<<l) != 0 {
					plant(tr.e[l])
				}
			}
		}
		for len(corpus) < 1<<(logBits-6) && logBits > 16 {
			plant(rng.Uint32())
		}
		set, err := targetset.Build(corpus, targetset.Options{})
		if err != nil {
			t.Fatal(err)
		}
		word4, _ := set.Word4()
		if word4.Bits() != uint64(1)<<logBits {
			t.Fatalf("%d digests: a %d-bit bitmap, want 2^%d", len(corpus), word4.Bits(), logBits)
		}
		if s, err = NewRunSearcher(set, symbols); err != nil {
			t.Fatal(err)
		}
		for i, tr := range trials {
			var want uint
			for l, e := range tr.e {
				if word4.MayContain(e) {
					want |= 1 << l
				}
			}
			if want&tr.planted != tr.planted {
				t.Fatalf("2^%d bits, trial %d: MayContain %016b misses planted lanes %016b", logBits, i, want, tr.planted)
			}
			s.block = tr.block
			s.split()
			for _, k := range screens16 {
				if k.level > hostcpu.Best {
					continue
				}
				var w [16]uint32
				if hit := k.screen(s, &w, &tr.win, tr.hi, tr.next, tr.lim); hit != want || w != tr.w {
					t.Fatalf("2^%d bits, trial %d: %s hit %016b, words %08x; want %016b, %08x (E %08x)", logBits, i, k.name, hit, w, want, tr.w, tr.e)
				}
			}
		}
	}
}

// TestScreenWord0MatchesRunword is the oracle of word 0 generated in the
// vector kernels: from every low value of the runword block's table, two
// calls advanced as SearchRun advances them — across the table's wrap and
// the high part's carry, which ripples on through a digit at its last
// value — must store exactly the packed word 0 of the test's own
// digit-by-digit count, on every kernel the CPU runs, for charsets on both
// sides of the lane count, with four key bytes in word 0 and with three
// and the pad. Past the run's last value the count wraps, as runword's
// does.
func TestScreenWord0MatchesRunword(t *testing.T) {
	if hostcpu.Best == hostcpu.LevelGo {
		t.Skip("no AVX2 on this CPU")
	}
	set, err := targetset.Build([][]byte{make([]byte, Size)}, targetset.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, size := range []int{2, 3, 5, 6, 7, 16, 17, 18, 20, 31, 32, 33, 95} {
		symbols := make([]byte, size)
		for i := range symbols {
			symbols[i] = byte(' ' + i)
		}
		s, err := NewRunSearcher(set, symbols)
		if err != nil {
			t.Fatal(err)
		}
		ctr := &s.ctr
		m, period := 1, size // the block: the fewest positions with period ≥ 16 keys
		for period < 16 && m < 4 {
			m, period = m+1, period*size
		}
		for _, k := range []int{4, 3} {
			if m > k {
				continue
			}
			for _, kern := range screens16 {
				if kern.level > hostcpu.Best {
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
					_ = PackKey(msg, &s.block)
					ctr.Start(s.block[0])
					ctr.Block()
					if _, _, _, lim := ctr.Window(); lim != int32(period-pos0) {
						t.Fatalf("%d symbols: Block at %q leaves %d keys before the wrap, want %d", size, msg, lim, period-pos0)
					}
					for call := 0; call < 2; call++ {
						win, high, next, lim := ctr.Window()
						var w [16]uint32
						kern.screen(s, &w, (*[16]uint32)(win), high, next, lim)
						for l, got := range w {
							i := uint64(16*call + l)
							var block [16]uint32
							_ = PackKey(runCandidate(symbols, msg, k, i), &block)
							if got != block[0] {
								t.Fatalf("%s, %d symbols, run from %q: key %d has word 0 %08x, want %08x", kern.name, size, msg, i, got, block[0])
							}
						}
						ctr.Advance()
					}
				}
			}
		}
	}
}

func TestNewRunSearcherRefusesOtherDigests(t *testing.T) {
	set, err := targetset.Build([][]byte{make([]byte, 16)}, targetset.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewRunSearcher(set, []byte("ab")); err == nil {
		t.Fatal("NewRunSearcher accepted a set of 16-byte digests")
	}
}

var sinkFound int

// benchSearcher returns a run searcher over symbols for a corpus of
// corpusSize digests that no key of the benchmarks' runs hashes to.
func benchSearcher(b *testing.B, corpusSize int, symbols string) *RunSearcher {
	corpus := make([][]byte, corpusSize)
	for i := range corpus {
		d := sha1.Sum(binary.LittleEndian.AppendUint64(nil, uint64(i)))
		corpus[i] = d[:]
	}
	set, err := targetset.Build(corpus, targetset.Options{})
	if err != nil {
		b.Fatal(err)
	}
	s, err := NewRunSearcher(set, []byte(symbols))
	if err != nil {
		b.Fatal(err)
	}
	return s
}

func benchmarkSearchRun(b *testing.B, corpusSize int, symbols string) {
	s := benchSearcher(b, corpusSize, symbols)
	msg := []byte("aaaabc")
	run := len(symbols) * len(symbols) * len(symbols) * len(symbols)
	b.ResetTimer()
	for left := b.N; left > 0; left -= run {
		sinkFound += len(s.SearchRun(msg, 4, uint64(min(left, run)), nil))
	}
}

const (
	letters26 = "abcdefghijklmnopqrstuvwxyz"
	letters18 = "abcdefghijklmnopqr" // the fleet workloads' SHA1 charset
)

func BenchmarkSearchRun(b *testing.B)         { benchmarkSearchRun(b, 1, letters26) }
func BenchmarkSearchRunCorpus(b *testing.B)   { benchmarkSearchRun(b, 10000, letters26) }
func BenchmarkSearchRunCorpus18(b *testing.B) { benchmarkSearchRun(b, 10000, letters18) }

// BenchmarkScreen is the vector kernel SearchRun runs, alone, per key,
// probe included: one call per 16 keys against a 10^4-digest corpus on an
// 18-symbol block's table window, with the high part counting up per call
// so that the E words, and the bitmap words their probe reads, change
// from call to call as they do on the walk. BenchmarkSearchRunCorpus18 ÷
// BenchmarkScreen is what the Go around the kernel costs.
func BenchmarkScreen(b *testing.B) {
	screen := screen16
	switch screenLevel {
	case hostcpu.LevelGo:
		b.Skip("no vector kernel on this CPU")
	case hostcpu.LevelAVX512:
		screen = screen16Z
	}
	s := benchSearcher(b, 10000, letters18)
	msg := []byte("aaaabc")
	s.ctr.Seek(msg, 4, 1)
	_ = PackKey(msg, &s.block)
	s.split()
	s.ctr.Start(s.block[0])
	s.ctr.Block()
	win, _, _, lim := s.ctr.Window()
	var w [16]uint32
	b.ResetTimer()
	for i := 0; i < b.N; i += 16 {
		hi := uint32(i) & 0xffffff // key bytes 1 to 3
		sinkFound += int(screen(s, &w, (*[16]uint32)(win), hi, hi+1, lim))
	}
}

// TestScreenKernels logs the kernel SearchRun picks on this CPU and runs
// one planted search on each level hostcpu defines, a subtest per kernel:
// run with -v, a level the CPU cannot run shows as skipped, not as
// passed.
func TestScreenKernels(t *testing.T) {
	t.Logf("ScreenKernel() = %s (hostcpu.AVX2 %v, hostcpu.AVX512 %v)", ScreenKernel(), hostcpu.AVX2, hostcpu.AVX512)
	defer func() { screenLevel = hostcpu.Best }()
	symbols, msg := []byte("abcdefg"), []byte("bcaaTAIL")
	key := runCandidate(symbols, msg, 4, 37)
	d := sha1.Sum(key)
	set, err := targetset.Build([][]byte{d[:]}, targetset.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, level := range hostcpu.All() {
		screenLevel = level
		t.Run(ScreenKernel(), func(t *testing.T) {
			if level > hostcpu.Best {
				t.Skip("this CPU cannot run it")
			}
			s, err := NewRunSearcher(set, symbols)
			if err != nil {
				t.Fatal(err)
			}
			if got := s.SearchRun(msg, 4, 53, nil); len(got) != 1 || !bytes.Equal(got[0], key) {
				t.Errorf("found %q, want [%s]", got, key)
			}
		})
	}
}
