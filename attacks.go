package keysearch

import (
	"context"
	"math/big"

	"keysearch/internal/core"
	"keysearch/internal/cracker"
	"keysearch/internal/dict"
	"keysearch/internal/keyspace"
	"keysearch/internal/markov"
	"keysearch/internal/mask"
	"keysearch/internal/mining"
	"keysearch/internal/rainbow"
)

// Dictionary and hybrid attacks (the introduction's alternatives to plain
// brute force).
type (
	// Rule is a word-mangling transformation.
	Rule = dict.Rule
	// DictSpace enumerates word x rule x mask-suffix candidates.
	DictSpace = dict.Space
)

// Builtin mangling rules.
var (
	RuleIdentity   = dict.Identity
	RuleCapitalize = dict.Capitalize
	RuleUpper      = dict.Upper
	RuleReverse    = dict.Reverse
	RuleDuplicate  = dict.Duplicate
	RuleLeet       = dict.Leet
)

// ParseRules resolves a comma-separated rule list ("identity,leet").
func ParseRules(spec string) ([]Rule, error) { return dict.ParseRules(spec) }

// NewDictSpace builds a dictionary attack space; mask may be nil (pure
// dictionary) or a small space brute-forced as a suffix (hybrid attack).
func NewDictSpace(words []string, rules []Rule, mask *Space) (*DictSpace, error) {
	return dict.New(words, rules, mask)
}

// DictAttack runs a dictionary/hybrid attack against a digest.
func DictAttack(ctx context.Context, alg Algorithm, digest []byte, space *DictSpace, opt Options) (*Result, error) {
	return searchDigest(ctx, alg, digest, space.Factory(), opt)
}

// Precomputation attacks (and why salting defeats them).
type (
	// LookupTable is a full digest -> key map.
	LookupTable = rainbow.LookupTable
	// RainbowTable stores hash/reduce chains.
	RainbowTable = rainbow.Table
)

// BuildLookupTable precomputes a full lookup table (small spaces only).
func BuildLookupTable(space *Space, alg Algorithm, limit uint64) (*LookupTable, error) {
	return rainbow.BuildLookup(space, alg, limit)
}

// BuildRainbowTable precomputes a rainbow table over a space.
func BuildRainbowTable(space *Space, alg Algorithm, chains, chainLen int, seed uint64) (*RainbowTable, error) {
	return rainbow.Build(space, alg, chains, chainLen, seed)
}

// Bitcoin-style mining (the introduction's second motivating workload).
type (
	// BlockHeader is an 80-byte proof-of-work header template.
	BlockHeader = mining.Header
	// Miner is a pool participant.
	Miner = mining.Miner
	// MiningPool coordinates miners over one block.
	MiningPool = mining.Pool
	// PoolResult reports a pool round.
	PoolResult = mining.PoolResult
)

// Mine searches a nonce range for a proof of work with the given number
// of leading zero bits.
func Mine(ctx context.Context, tmpl BlockHeader, difficulty int, from, to uint64, workers int) (uint32, bool, error) {
	return mining.Mine(ctx, tmpl, difficulty, from, to, workers)
}

// Markov-guided enumeration (the related-work heuristic §III.A leaves room
// for: test likely keys first).
type (
	// MarkovModel is a first-order character model with quantized costs.
	MarkovModel = markov.Model
	// MarkovSpace is a cost-band key space with exact rank/unrank.
	MarkovSpace = markov.Space
)

// TrainMarkov fits a model on sample words over the charset.
func TrainMarkov(samples []string, charset string) (*MarkovModel, error) {
	cs, err := keyspace.NewCharset(charset)
	if err != nil {
		return nil, err
	}
	return markov.Train(samples, cs)
}

// NewMarkovSpace builds the band space of keys with length in
// [minLen, maxLen] and model cost in (lo, hi] (lo = -1 for all costs
// up to hi).
func NewMarkovSpace(m *MarkovModel, minLen, maxLen, lo, hi int) (*MarkovSpace, error) {
	return markov.NewSpace(m, minLen, maxLen, lo, hi)
}

// MarkovBands partitions (0, maxCost] into k contiguous cost bands.
func MarkovBands(maxCost, k int) [][2]int { return markov.Bands(maxCost, k) }

// MarkovAttack searches one cost band for a preimage of digest.
func MarkovAttack(ctx context.Context, alg Algorithm, digest []byte, space *MarkovSpace, opt Options) (*Result, error) {
	return searchDigest(ctx, alg, digest, space.Factory(), opt)
}

// Mask (pattern) attacks: per-position charsets like "?u?l?l?d?d".
type Mask = mask.Mask

// ParseMask compiles a mask specification (?l ?u ?d ?s ?a classes,
// literals otherwise).
func ParseMask(spec string) (*Mask, error) { return mask.Parse(spec) }

// MaskAttack searches a mask's candidates for a preimage of digest.
func MaskAttack(ctx context.Context, alg Algorithm, digest []byte, m *Mask, opt Options) (*Result, error) {
	return searchDigest(ctx, alg, digest, m.Factory(), opt)
}

// searchDigest searches all of space, one candidate at a time on the
// optimized kernel, for preimages of digest — by default for the first.
// A digest the kernel refuses, such as one of the wrong length, is an
// error before the search starts.
func searchDigest(ctx context.Context, alg Algorithm, digest []byte, space core.Factory, opt Options) (*Result, error) {
	if opt.MaxSolutions == 0 {
		opt.MaxSolutions = 1
	}
	job := &cracker.Job{Algorithm: alg, Target: digest, Kind: cracker.KernelOptimized}
	newTest, err := job.TestFactory()
	if err != nil {
		return nil, err
	}
	iv := keyspace.Interval{Start: new(big.Int), End: space.Size()}
	return core.SearchEach(ctx, space, iv, newTest, opt)
}
