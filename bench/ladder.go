package main

import (
	"context"
	"crypto/sha1"
	"encoding/binary"
	"fmt"
	"time"

	"keysearch/internal/core"
	"keysearch/internal/cracker"
	"keysearch/internal/hash/md5x"
	"keysearch/internal/hash/sha1x"
	"keysearch/internal/jobs"
	"keysearch/internal/keyspace"
	"keysearch/internal/targetset"
	"keysearch/internal/telemetry"
)

// ladderReps is how often each rung repeats its fixed operation count,
// after one unmeasured repetition that warms caches and wakes the
// cores it will use; the rung reports the median repetition.
const ladderReps = 5

// sink keeps the compiler from discarding a measured call.
var sink uint64

// perOp returns the median nanoseconds per operation of a loop body
// that performs n operations.
func perOp(n int, body func(n int)) float64 {
	ns, _ := inTurns(func() (float64, error) { return perOpOnce(n, body), nil })
	return ns[0]
}

// perOpOnce times one run of the loop body.
func perOpOnce(n int, body func(n int)) float64 {
	t0 := time.Now()
	body(n)
	return float64(time.Since(t0).Nanoseconds()) / float64(n)
}

// ladder measures the hot path rung by rung — from one `next` to the
// whole cracker — on a single goroutine with fixed operation counts,
// timing only public functions, in the paper's cost vocabulary (K_next,
// K_f, K_C). scale shrinks the counts for the harness tests.
func ladder(ctx context.Context, scale float64) (metrics, error) {
	n := func(ops int) int {
		if v := int(float64(ops) * scale); v > 64 {
			return v
		}
		return 64
	}
	out := metrics{}

	space := keyspace.MustNew(keyspace.MustCharset(workloads[0].charset), 1, 6, keyspace.PrefixMajor)
	size, _ := space.Size64()

	cur := keyspace.NewCursor64(space, 0)
	out.set("keyspace.next_ns", perOp(n(8<<20), func(n int) {
		for i := 0; i < n; i++ {
			if !cur.Next() {
				cur = keyspace.NewCursor64(space, 0)
			}
		}
		sink += uint64(len(cur.Key()))
	}), "ns")

	var key []byte
	out.set("keyspace.f_ns", perOp(n(2<<20), func(n int) {
		for i := 0; i < n; i++ {
			key = space.AppendKey64(key[:0], uint64(i)*2654435761%size)
		}
		sink += uint64(key[0])
	}), "ns")

	var block [16]uint32
	key = []byte("keyabc")
	out.set("md5x.pack_ns", perOp(n(4<<20), func(n int) {
		for i := 0; i < n; i++ {
			key[0] = byte(i)
			if md5x.PackKey(key, &block) != nil {
				panic("md5x.PackKey refused a 6-byte key")
			}
		}
		sink += uint64(block[0])
	}), "ns")

	target := md5x.Sum([]byte("no key in any space hashes here"))
	rev := md5x.NewReverseContext(md5x.StateWords(target), &block)
	md5s := md5x.NewSearcher(target)
	out.set("md5x.plain_ns", perOp(n(1<<19), func(n int) {
		for i := 0; i < n; i++ {
			key[0] = byte(i)
			if md5s.TestPlain(key) {
				sink++
			}
		}
	}), "ns")

	sha1s := sha1x.NewSearcher(sha1x.Sum([]byte("no key in any space hashes here")))
	out.set("sha1x.test_ns", perOp(n(1<<19), func(n int) {
		for i := 0; i < n; i++ {
			key[0] = byte(i)
			if sha1s.Test(key) {
				sink++
			}
		}
	}), "ns")

	// A 10^4-digest corpus, probed with digests that are not in it: the
	// Bloom pre-screen as every non-matching candidate pays it.
	digests := make([][]byte, 10000)
	for i := range digests {
		d := sha1.Sum(binary.LittleEndian.AppendUint64(nil, uint64(i)))
		digests[i] = d[:]
	}
	set, err := targetset.Build(digests, targetset.Options{})
	if err != nil {
		return nil, err
	}
	misses := make([][]byte, 4096)
	for i := range misses {
		d := sha1.Sum(binary.LittleEndian.AppendUint64(nil, uint64(1<<32+i)))
		misses[i] = d[:]
	}
	out.set("targetset.probe_ns", perOp(n(2<<20), func(n int) {
		for i := 0; i < n; i++ {
			if set.MayContain(misses[i&4095]) {
				sink++
			}
		}
	}), "ns")

	// The search rungs cover the tail of the space, where every key has
	// the full length the fleet workloads spend their time on. Rungs that
	// feed a ratio take turns inside the same rounds, so the host's drift
	// (see README.md) hits numerator and denominator alike.
	tail := func(keys int) keyspace.Interval {
		return keyspace.NewInterval(int64(size)-int64(keys), int64(size))
	}
	search := func(keys int, run func(iv keyspace.Interval) (*core.Result, error)) func() (float64, error) {
		return func() (float64, error) {
			res, err := run(tail(keys))
			if err != nil {
				return 0, err
			}
			if res.Tested != uint64(keys) {
				return 0, fmt.Errorf("ladder: searched %d of %d keys", res.Tested, keys)
			}
			return float64(res.Elapsed.Nanoseconds()) / float64(keys), nil
		}
	}
	crack := func(keys int, job *cracker.Job, opt core.Options) func() (float64, error) {
		return search(keys, func(iv keyspace.Interval) (*core.Result, error) {
			return cracker.CrackAll(ctx, job, iv, opt)
		})
	}

	spec := jobs.Spec{Algorithm: "md5", Target: digestHex("md5", []byte("outside")), Charset: workloads[0].charset, MinLen: 1, MaxLen: 6}
	md5Job, err := spec.CrackerJob()
	if err != nil {
		return nil, err
	}
	spec.Algorithm, spec.Target = "sha1", digestHex("sha1", []byte("outside"))
	sha1Job, err := spec.CrackerJob()
	if err != nil {
		return nil, err
	}
	corpusJob := &cracker.Job{Algorithm: cracker.SHA1, Corpus: set, Space: space, Kind: cracker.KernelOptimized}
	one := core.Options{Workers: 1}
	never := func([]byte) bool { return false }

	ns, err := inTurns(
		func() (float64, error) {
			return perOpOnce(n(1<<20), func(n int) {
				for i := 0; i < n; i++ {
					if rev.Test(uint32(i)) {
						sink++
					}
				}
			}), nil
		},
		crack(n(1<<20), md5Job, one),
		crack(n(2<<20), md5Job, core.Options{Workers: 2}),
		crack(n(1<<20), md5Job, core.Options{Workers: 1, Telemetry: telemetry.NewRegistry()}),
		crack(n(1<<19), sha1Job, one),
		crack(n(1<<19), corpusJob, one),
		search(n(8<<20), func(iv keyspace.Interval) (*core.Result, error) {
			return core.Search(ctx, core.KeyspaceFactory(space), iv, never, one)
		}),
	)
	if err != nil {
		return nil, err
	}
	md5Test, md5NS, twoNS, telNS := ns[0], ns[1], ns[2], ns[3]
	out.set("md5x.test_ns", md5Test, "ns")
	out.set("cracker.md5_ns_per_key", md5NS, "ns")
	out.set("cracker.overhead_ratio", md5NS/md5Test, "ratio")
	out.set("cracker.scaling_2", md5NS/twoNS, "ratio")
	out.set("telemetry.overhead_ratio", telNS/md5NS, "ratio")
	out.set("cracker.sha1_ns_per_key", ns[4], "ns")
	out.set("cracker.corpus_sha1_ns_per_key", ns[5], "ns")
	out.set("core.loop_ns_per_key", ns[6], "ns")
	return out, nil
}

// inTurns measures several rungs round-robin: one unmeasured round,
// then ladderReps rounds, each rung once per round. It returns every
// rung's median.
func inTurns(rungs ...func() (float64, error)) ([]float64, error) {
	samples := make([][]float64, len(rungs))
	for r := 0; r <= ladderReps; r++ {
		for i, rung := range rungs {
			v, err := rung()
			if err != nil {
				return nil, err
			}
			if r > 0 {
				samples[i] = append(samples[i], v)
			}
		}
	}
	out := make([]float64, len(rungs))
	for i, s := range samples {
		out[i] = median(s)
	}
	return out, nil
}
