package md5x

import (
	"bytes"
	"crypto/md5"
	"testing"
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

// FuzzSearchRun checks SearchRun against the per-candidate Searcher.Test
// and against crypto/md5 on random templates, run widths, start digits,
// lengths and symbol sets. The target is planted at candidate plant of
// the run — either lane of a 2-lane group or the odd tail — or, when
// plant ≥ n, nowhere.
func FuzzSearchRun(f *testing.F) {
	// One seed per lane position, one in the tail, one miss, one empty
	// key, one short (pad inside word 0), one one-symbol set, one past
	// a single block.
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
		got := NewRunSearcher(target, symbols).SearchRun(msg, k, n, nil)
		if len(got) != len(want) {
			t.Fatalf("SearchRun(%q, k=%d, n=%d) found %q, want %q", msg, k, n, got, want)
		}
		for i := range got {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("SearchRun(%q, k=%d, n=%d) found %q, want %q", msg, k, n, got, want)
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
	symbols := []byte("abcdefghij")
	keys := []string{"jihgKEY", "cde", "aaaaLONGER", "j"}
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
				t.Errorf("key %q, run from %q: found %q", key, start, got)
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
