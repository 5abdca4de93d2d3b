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
	// group) and the tail, with the decoy in the other group.
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
	screen func(*RunSearcher, *[16]uint32, *[16]uint32)
}{
	{"screen16", hostcpu.LevelAVX2, screen16},
	{"screen16Z", hostcpu.LevelAVX512, screen16Z},
}

// TestScreen16MatchesFinalE is the differential test of the vector
// kernels: on random blocks and sixteen random words 0, lane l of the
// output of each one the CPU runs must equal finalE on w[l] (fed the
// bracket of w[l]'s high bytes and the row of its first byte, every byte
// a symbol) and word 4 of SumPacked on the block with word 0 set to w[l].
// Every other trial copies a lane's word into the same lane of screen16's
// other group.
func TestScreen16MatchesFinalE(t *testing.T) {
	if hostcpu.Best == hostcpu.LevelGo {
		t.Skip("no AVX2 on this CPU")
	}
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
	rng := rand.New(rand.NewSource(30))
	for trial := 0; trial < 2000; trial++ {
		var w [16]uint32
		for i := range s.block {
			s.block[i] = rng.Uint32()
		}
		for l := range w {
			w[l] = rng.Uint32()
		}
		if trial%2 == 0 {
			lane := trial / 2 % 16
			w[lane^8] = w[lane]
		}
		s.split()
		var want [16]uint32
		for l, x := range w {
			block := s.block
			block[0] = x
			sum := SumPacked(&block)
			s.rehigh(x &^ 0xff000000)
			fe := s.finalE(x, (*[w0Reach]uint32)(s.rows[int(x>>24)*w0Reach:]))
			if fe != sum[4] {
				t.Fatalf("trial %d, lane %d (w0 %08x): finalE %08x, SumPacked word 4 %08x", trial, l, x, fe, sum[4])
			}
			want[l] = fe
		}
		for _, k := range screens16 {
			if k.level > hostcpu.Best {
				continue
			}
			var e [16]uint32
			k.screen(s, &w, &e)
			if e != want {
				t.Fatalf("trial %d (w0 %08x): %s %08x, finalE %08x", trial, w, k.name, e, want)
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

func benchmarkSearchRun(b *testing.B, corpusSize int) {
	corpus := make([][]byte, corpusSize)
	for i := range corpus {
		d := sha1.Sum(binary.LittleEndian.AppendUint64(nil, uint64(i)))
		corpus[i] = d[:]
	}
	set, err := targetset.Build(corpus, targetset.Options{})
	if err != nil {
		b.Fatal(err)
	}
	symbols := []byte("abcdefghijklmnopqrstuvwxyz")
	s, err := NewRunSearcher(set, symbols)
	if err != nil {
		b.Fatal(err)
	}
	msg := []byte("aaaabc")
	const run = 26 * 26 * 26 * 26
	b.ResetTimer()
	for left := b.N; left > 0; left -= run {
		sinkFound += len(s.SearchRun(msg, 4, uint64(min(left, run)), nil))
	}
}

func BenchmarkSearchRun(b *testing.B)       { benchmarkSearchRun(b, 1) }
func BenchmarkSearchRunCorpus(b *testing.B) { benchmarkSearchRun(b, 10000) }

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
