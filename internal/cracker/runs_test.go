package cracker

import (
	"bytes"
	"context"
	"crypto/md5"
	"crypto/sha1"
	"fmt"
	"slices"
	"testing"
	_ "unsafe" // go:linkname

	"keysearch/internal/core"
	"keysearch/internal/hash/hostcpu"
	"keysearch/internal/hash/md5x"
	"keysearch/internal/hash/sha1x"
	"keysearch/internal/keyspace"
	"keysearch/internal/targetset"
)

// md5xScreenLevel and sha1xScreenLevel are md5x's and sha1x's kernel
// dispatch, set from CPUID and deliberately not options. The "avx512/",
// "avx2/", "go2/" and "go1/" rows below pin them, so that a host with
// AVX-512 runs the AVX2 screens and the Go fallbacks through CrackInterval
// too, and the ZMM screens under the names ScreenKernel gives them.
//
//go:linkname md5xScreenLevel keysearch/internal/hash/md5x.screenLevel
var md5xScreenLevel hostcpu.Level

//go:linkname sha1xScreenLevel keysearch/internal/hash/sha1x.screenLevel
var sha1xScreenLevel hostcpu.Level

// TestRunWalkMatchesPerCandidate: CrackInterval's run walk and the
// per-candidate walk (core.SearchEach over the job's TestFactory) return
// the same sorted solutions and the same tested count — over intervals
// that straddle lengths 3→4 and 4→5, chunk ends in the middle of runs,
// suffix salts short and past one block, a prefix salt (which must fall
// back to the per-candidate walk), the empty key (MinLen 0), a one-symbol
// charset and MaxSolutions 1. Every case runs on each row of the table
// below: MD5 against one target on the host's screen (unprefixed names:
// the 32-lane ZMM screen where the CPU has AVX-512) and on the 2-lane Go
// screen ("md5 go2/"), SHA1 against one target ("sha1/") and SHA1
// against a corpus ("sha1 corpus/") that holds the planted digest,
// noise, and a decoy sharing digest bytes [16:20] with another key of the
// interval, so that key passes the word-4 filter and must be refused by
// the confirm — both SHA1 walks on the host's kernel and on the 1-lane Go
// kernel ("sha1 go1/", "sha1 corpus go1/"). "md5 avx512/" and "sha1 avx512/" pin the
// ZMM screens (avx512x32 for MD5, avx512x16 for SHA1) and "md5 avx2/" and
// "sha1 avx2/" both hashes' AVX2 screens, each skipped where the CPU
// cannot run it.
func TestRunWalkMatchesPerCandidate(t *testing.T) {
	lower := space(t, keyspace.Lower, 1, 5)
	// Lowercase ids: length 3 starts at 702, length 4 at 18278, length 5
	// at 475254.
	cases := []struct {
		name    string
		space   *keyspace.Space
		lo, hi  int64
		plant   int64 // id of the key the target is the digest of
		salt    Salt
		opt     core.Options
		all     bool // CrackAll (MaxSolutions -1) rather than the default 1
		noRuns  bool // the job must fall back to the per-candidate walk
		planted bool // the planted key lies in [lo, hi)
	}{
		{name: "3→4", space: lower, lo: 17000, hi: 22000, plant: 18278 + 4*26 + 3,
			opt: core.Options{Workers: 3, ChunkSize: 997}, all: true, planted: true},
		{name: "3→4 tail of length 3", space: lower, lo: 18000, hi: 18300, plant: 18277,
			opt: core.Options{Workers: 2, ChunkSize: 61}, all: true, planted: true},
		{name: "4→5 tail of length 4", space: lower, lo: 475254 - 9000, hi: 475254 + 30000, plant: 475254 - 2,
			opt: core.Options{Workers: 2, ChunkSize: 4099}, all: true, planted: true},
		{name: "4→5", space: lower, lo: 475254 - 9000, hi: 475254 + 30000, plant: 475254 + 26*26 + 5,
			opt: core.Options{Workers: 2, ChunkSize: 4099}, all: true, planted: true},
		{name: "4→5 miss", space: lower, lo: 470000, hi: 480001, plant: 12000000,
			opt: core.Options{Workers: 2}, all: true},
		{name: "suffix salt", space: lower, lo: 18278, hi: 60000, plant: 40001,
			salt: Salt{Suffix: []byte("$pepper")}, opt: core.Options{Workers: 2, ChunkSize: 1000}, all: true, planted: true},
		{name: "suffix salt past one block", space: lower, lo: 18200, hi: 19000, plant: 18278 + 26*26 + 1,
			salt: Salt{Suffix: bytes.Repeat([]byte("s"), 60)}, opt: core.Options{Workers: 2, ChunkSize: 100}, all: true, planted: true},
		{name: "prefix salt", space: lower, lo: 18000, hi: 22000, plant: 19999,
			salt: Salt{Prefix: []byte("pre$")}, opt: core.Options{Workers: 2, ChunkSize: 333}, all: true, noRuns: true, planted: true},
		{name: "MaxSolutions 1", space: lower, lo: 17000, hi: 40000, plant: 20000,
			opt: core.Options{Workers: 1, ChunkSize: 1500}, planted: true},
		{name: "empty key", space: space(t, keyspace.MustCharset("xy"), 0, 6), lo: 0, hi: 127, plant: 0,
			opt: core.Options{Workers: 2, ChunkSize: 10}, all: true, planted: true},
		{name: "one symbol", space: space(t, keyspace.MustCharset("q"), 1, 20), lo: 0, hi: 20, plant: 7,
			opt: core.Options{Workers: 2, ChunkSize: 3}, all: true, planted: true},
	}
	md5Job := func(t *testing.T, salted func(int64) []byte, plant, _ int64) *Job {
		d := md5.Sum(salted(plant))
		return &Job{Algorithm: MD5, Target: d[:]}
	}
	sha1Job := func(t *testing.T, salted func(int64) []byte, plant, _ int64) *Job {
		d := sha1.Sum(salted(plant))
		return &Job{Algorithm: SHA1, Target: d[:]}
	}
	sha1CorpusJob := func(t *testing.T, salted func(int64) []byte, plant, decoy int64) *Job {
		planted := sha1.Sum(salted(plant))
		corpus := [][]byte{planted[:]}
		for i := 0; i < 300; i++ {
			d := sha1.Sum([]byte(fmt.Sprintf("noise-%d", i)))
			corpus = append(corpus, d[:])
		}
		word := sha1.Sum(salted(decoy))
		fake := sha1.Sum([]byte("decoy"))
		copy(fake[16:], word[16:])
		corpus = append(corpus, fake[:])
		set, err := targetset.Build(corpus, targetset.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return &Job{Algorithm: SHA1, Corpus: set}
	}
	for _, variant := range []struct {
		prefix  string
		level   hostcpu.Level // the level both hashes run on, with kernels
		kernels string        // md5x's and sha1x's ScreenKernel there; "" for the CPU's best
		job     func(t *testing.T, salted func(id int64) []byte, plant, decoy int64) *Job
	}{
		{"", 0, "", md5Job},
		{"md5 avx512/", hostcpu.LevelAVX512, "avx512x32 avx512x16", md5Job},
		{"md5 avx2/", hostcpu.LevelAVX2, "avx2x16 avx2x16", md5Job},
		{"md5 go2/", hostcpu.LevelGo, "go2 go1", md5Job},
		{"sha1/", 0, "", sha1Job},
		{"sha1 avx512/", hostcpu.LevelAVX512, "avx512x32 avx512x16", sha1Job},
		{"sha1 avx2/", hostcpu.LevelAVX2, "avx2x16 avx2x16", sha1Job},
		{"sha1 go1/", hostcpu.LevelGo, "go2 go1", sha1Job},
		{"sha1 corpus/", 0, "", sha1CorpusJob},
		{"sha1 corpus go1/", hostcpu.LevelGo, "go2 go1", sha1CorpusJob},
	} {
		for _, tc := range cases {
			t.Run(variant.prefix+tc.name, func(t *testing.T) {
				if variant.kernels != "" {
					if variant.level > hostcpu.Best {
						t.Skipf("this CPU cannot run the %s kernels", variant.kernels)
					}
					md5Host, sha1Host := md5xScreenLevel, sha1xScreenLevel
					md5xScreenLevel, sha1xScreenLevel = variant.level, variant.level
					defer func() { md5xScreenLevel, sha1xScreenLevel = md5Host, sha1Host }()
					if got := md5x.ScreenKernel() + " " + sha1x.ScreenKernel(); got != variant.kernels {
						t.Fatalf("pinned to %s, the kernels report %s: the linkname does not reach the dispatch", variant.kernels, got)
					}
				}
				salted := func(id int64) []byte { return tc.salt.Apply(nil, tc.space.Key64(uint64(id))) }
				key := tc.space.Key64(uint64(tc.plant))
				job := variant.job(t, salted, tc.plant, tc.lo+(tc.hi-tc.lo)/2+1)
				job.Space, job.Salt = tc.space, tc.salt
				if job.searchesRuns() == tc.noRuns {
					t.Fatalf("searchesRuns() = %v", !tc.noRuns)
				}
				iv := keyspace.NewInterval(tc.lo, tc.hi)
				ctx := context.Background()
				opt := tc.opt
				opt.MaxSolutions = 1
				if tc.all {
					opt.MaxSolutions = -1
				}
				runs, err := CrackInterval(ctx, job, iv, opt)
				if err != nil {
					t.Fatal(err)
				}
				newTest, err := job.TestFactory()
				if err != nil {
					t.Fatal(err)
				}
				each, err := core.SearchEach(ctx, core.KeyspaceFactory(tc.space), iv, newTest, opt)
				if err != nil {
					t.Fatal(err)
				}
				sortKeys(runs.Solutions)
				sortKeys(each.Solutions)
				if runs.Tested != each.Tested || !slices.EqualFunc(runs.Solutions, each.Solutions, bytes.Equal) {
					t.Fatalf("run walk: tested %d, found %q; per-candidate walk: tested %d, found %q",
						runs.Tested, runs.Solutions, each.Tested, each.Solutions)
				}
				if tc.all && runs.Tested != uint64(tc.hi-tc.lo) {
					t.Errorf("tested %d of %d", runs.Tested, tc.hi-tc.lo)
				}
				if got := len(runs.Solutions) == 1 && bytes.Equal(runs.Solutions[0], key); got != tc.planted || len(runs.Solutions) > 1 {
					t.Errorf("found %q, planted %q in the interval: %v", runs.Solutions, key, tc.planted)
				}
			})
		}
	}
}

func sortKeys(keys [][]byte) { slices.SortFunc(keys, bytes.Compare) }

// TestOnlyEligibleJobsSearchRuns pins the conditions of the run walk.
func TestOnlyEligibleJobsSearchRuns(t *testing.T) {
	pm := space(t, keyspace.Lower, 1, 4)
	sm := keyspace.MustNew(keyspace.Lower, 1, 4, keyspace.SuffixMajor)
	d := md5.Sum([]byte("x"))
	base := Job{Algorithm: MD5, Target: d[:], Space: pm}
	corpus, err := targetset.Build([][]byte{d[:]}, targetset.Options{})
	if err != nil {
		t.Fatal(err)
	}
	d1 := sha1.Sum([]byte("x"))
	sha1Corpus, err := targetset.Build([][]byte{d1[:]}, targetset.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sha1Job := func(j *Job) { j.Algorithm, j.Target = SHA1, d1[:] }
	for _, c := range []struct {
		name string
		edit func(j *Job)
		want bool
	}{
		{"md5 optimized prefix-major", func(*Job) {}, true},
		{"suffix salt", func(j *Job) { j.Salt.Suffix = []byte("s") }, true},
		{"sha1", sha1Job, true},
		{"sha1 corpus", func(j *Job) { sha1Job(j); j.Corpus = sha1Corpus }, true},
		{"sha1 suffix salt", func(j *Job) { sha1Job(j); j.Salt.Suffix = []byte("s") }, true},
		{"plain kernel", func(j *Job) { j.Kind = KernelPlain }, false},
		{"naive kernel", func(j *Job) { j.Kind = KernelNaive }, false},
		{"sha1 plain kernel", func(j *Job) { sha1Job(j); j.Kind = KernelPlain }, false},
		{"sha1 corpus plain kernel", func(j *Job) { sha1Job(j); j.Corpus = sha1Corpus; j.Kind = KernelPlain }, false},
		{"prefix salt", func(j *Job) { j.Salt.Prefix = []byte("p") }, false},
		{"sha1 prefix salt", func(j *Job) { sha1Job(j); j.Salt.Prefix = []byte("p") }, false},
		{"suffix-major", func(j *Job) { j.Space = sm }, false},
		{"sha1 suffix-major", func(j *Job) { sha1Job(j); j.Space = sm }, false},
		{"corpus", func(j *Job) { j.Corpus = corpus }, false},
	} {
		j := base
		c.edit(&j)
		if got := j.searchesRuns(); got != c.want {
			t.Errorf("%s: searchesRuns() = %v, want %v", c.name, got, c.want)
		}
	}
}
