package main

import (
	"crypto/md5"
	"crypto/sha1"
	"encoding/hex"
	"fmt"
	"math/rand"

	"keysearch/internal/jobs"
	"keysearch/internal/shardplane"
)

// workload is one set of inputs the benchmark runs. Every workload is
// a closed loop: each client submits a job, waits for its terminal
// state, verifies it, and only then submits the next, until the
// measurement window has elapsed (the job in flight at the deadline
// runs to completion and counts).
type workload struct {
	name string // BENCHMARK.json and README.md say why each one exists

	alg            string
	charset        string
	minLen, maxLen int
	// warmLen is the maximum key length of the warm-up job that runs
	// inside setup_s (same algorithm, charset and corpus size, smaller
	// space).
	warmLen int
	// lease pins the lease size (jobs.Options MinLease = MaxLease): the
	// tuner's own pick wanders by 2x run to run, which moved keys_per_s
	// by 12% in the sizing prototype.
	lease uint64
	// corpus is the number of digests in Spec.Targets (0 = one Target);
	// planted of them are keys inside the space, the rest decoys whose
	// preimages lie outside it.
	corpus, planted int

	// api selects the control-plane rig: a shardplane router over shards
	// of one local executor each, driven through HTTP. Otherwise the job
	// service is driven directly over a loopback TCP keyworker fleet.
	api     bool
	clients int
	tenants int
}

// Both rigs keep workers x search goroutines at 2, the reference
// host's core count.
const (
	fleetWorkers = 2
	apiShards    = 2
)

var workloads = []workload{
	{
		name: "fleet-coarse",
		alg:  "md5", charset: "abcdefghijklmnopqrst", minLen: 1, maxLen: 6, warmLen: 5,
		lease: 1 << 20, planted: 1, clients: 1,
	},
	{
		name: "fleet-fine",
		alg:  "md5", charset: "abcdefghijklmnopqrst", minLen: 1, maxLen: 6, warmLen: 5,
		lease: 1 << 14, planted: 1, clients: 1,
	},
	{
		name: "fleet-audit",
		alg:  "sha1", charset: "abcdefghijklmnopqr", minLen: 1, maxLen: 6, warmLen: 5,
		lease: 1 << 20, corpus: 10000, planted: 16, clients: 1,
	},
	{
		name: "api-small-jobs",
		alg:  "md5", charset: "abcdefghijklmnopqrstuvwxyz", minLen: 1, maxLen: 4, warmLen: 4,
		lease: 1 << 16, planted: 1, api: true, clients: 2, tenants: 16,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// toy shrinks a workload to a 3-character space for the harness tests;
// the rig, the job shape and every audit stay the same.
func (w workload) toy() workload {
	w.maxLen, w.warmLen = 3, 2
	w.lease = 1 << 9
	if w.corpus > 0 {
		w.corpus = 64
	}
	return w
}

// jobInput is one generated job: the spec the system under test
// receives, and what the generator knows about it for the audit.
type jobInput struct {
	tenant  string
	spec    jobs.Spec
	size    uint64
	planted []string
}

// generator derives every input from the seed: planted identifiers,
// decoy digests and tenant names. Each client owns one, so the job
// sequence a client submits does not depend on goroutine scheduling.
type generator struct {
	w       workload
	rng     *rand.Rand
	decoys  []string
	tenants []string
}

// newGenerator builds one client's job stream; warm selects the
// separate stream its warm-up job comes from. Decoys and tenant names
// depend on the seed alone, so all streams of a run share them.
func newGenerator(w workload, seed int64, client int, warm bool) *generator {
	stream := int64(2 * client)
	if warm {
		stream++
	}
	g := &generator{w: w, rng: rand.New(rand.NewSource(seed*1_000_003 + stream)), tenants: []string{"bench"}}
	for i := 0; i < w.corpus-w.planted; i++ {
		// '|' and the digits are outside every workload charset, so no
		// decoy can be found inside the searched space.
		g.decoys = append(g.decoys, digestHex(w.alg, []byte(fmt.Sprintf("decoy|%d|%d", seed, i))))
	}
	if w.tenants > 0 {
		g.tenants = shardTenants(seed, w.tenants/apiShards, shardName(client%apiShards))
	}
	return g
}

// apiRing is the ring the api rig's plane builds over its shards.
func apiRing() *shardplane.Ring {
	names := make([]string, apiShards)
	for i := range names {
		names[i] = shardName(i)
	}
	ring, err := shardplane.NewRing(names, shardplane.RingOptions{})
	if err != nil {
		panic(err) // fixed, valid shard names
	}
	return ring
}

// shardTenants draws seeded tenant names and keeps the first n the
// plane's ring places on the given shard. Each client submits for the
// tenants of one shard: were both clients to draw from all tenants,
// half the jobs would queue behind the other client's on the same
// single-executor shard, and the median turnaround would sit on the
// edge between the two modes and swing by 20% from run to run.
func shardTenants(seed int64, n int, shard string) []string {
	ring := apiRing()
	rng := rand.New(rand.NewSource(seed))
	var out []string
	for len(out) < n {
		if t := fmt.Sprintf("tenant-%08x", rng.Uint32()); ring.Owner(t) == shard {
			out = append(out, t)
		}
	}
	return out
}

func shardName(i int) string { return fmt.Sprintf("s%d", i) }

func digestHex(alg string, key []byte) string {
	if alg == "sha1" {
		d := sha1.Sum(key)
		return hex.EncodeToString(d[:])
	}
	d := md5.Sum(key)
	return hex.EncodeToString(d[:])
}

// next generates one job over lengths minLen..maxLen.
func (g *generator) next(maxLen int) (jobInput, error) {
	w := g.w
	spec := jobs.Spec{Algorithm: w.alg, Charset: w.charset, MinLen: w.minLen, MaxLen: maxLen}
	space, err := spec.Space()
	if err != nil {
		return jobInput{}, err
	}
	size, ok := space.Size64()
	if !ok {
		return jobInput{}, fmt.Errorf("workload %s: space does not fit 64 bits", w.name)
	}
	in := jobInput{tenant: g.tenants[g.rng.Intn(len(g.tenants))], size: size}
	seen := make(map[uint64]bool)
	var digests []string
	for len(in.planted) < w.planted {
		id := uint64(g.rng.Int63n(int64(size)))
		if seen[id] {
			continue
		}
		seen[id] = true
		key := space.Key64(id)
		in.planted = append(in.planted, string(key))
		digests = append(digests, digestHex(w.alg, key))
	}
	if w.corpus == 0 {
		spec.Target = digests[0]
	} else {
		spec.Targets = append(digests, g.decoys...)
		g.rng.Shuffle(len(spec.Targets), func(i, j int) {
			spec.Targets[i], spec.Targets[j] = spec.Targets[j], spec.Targets[i]
		})
	}
	in.spec = spec
	return in, nil
}
