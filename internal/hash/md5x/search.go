package md5x

//go:generate go run ./gen

// ReverseSteps is the number of trailing MD5 steps that never read message
// word m[0] and can therefore be inverted once per candidate run instead of
// executed once per candidate (Section V of the paper; the trick originates
// in the BarsWF cracker).
const ReverseSteps = 15

// ForwardSteps is the number of steps a reversal-optimized candidate test
// executes: 64 total minus the 15 reversed ones.
const ForwardSteps = 64 - ReverseSteps

// ReverseContext holds the target digest reversed through the last 15 MD5
// steps for a fixed message template. Only message word 0 may vary between
// candidates; words 1..15 (key suffix, padding, length) are baked in.
//
// A ReverseContext is not safe for concurrent use; each worker owns one.
// Its two forward kernels, Test and the 2-lane screen2, are straight-line
// code generated into kernels_gen.go.
type ReverseContext struct {
	block [16]uint32           // message template; word 0 is ignored
	add   [ForwardSteps]uint32 // per forward step: T[i] + the template word it reads (word 0 counts as 0)
	rev   [4]uint32            // register file after step 48, derived from the target
}

// NewReverseContext builds a reversal context for the given target state
// words (little-endian decoding of the digest) and message template.
// Word 0 of the template is ignored.
func NewReverseContext(target [4]uint32, template *[16]uint32) *ReverseContext {
	r := new(ReverseContext)
	r.reset(target, template)
	return r
}

// reset rebuilds r in place for a new target and template, so a run
// searcher derives one context per run without allocating.
func (r *ReverseContext) reset(target [4]uint32, template *[16]uint32) {
	r.block = *template
	r.block[0] = 0
	for i := range r.add {
		r.add[i] = T[i] + r.block[MsgIndex(i)]
	}
	// Undo the final feed-forward addition of the IV...
	a := target[0] - iv[0]
	b := target[1] - iv[1]
	c := target[2] - iv[2]
	d := target[3] - iv[3]
	// ...then invert steps 63 down to 49. None of them reads m[0]
	// (MsgIndex(i) != 0 for i in [49,63]); step 48 is the first that does.
	for i := 63; i >= 64-ReverseSteps; i-- {
		a, b, c, d = InvStep(i, a, b, c, d, r.block[MsgIndex(i)])
	}
	r.rev = [4]uint32{a, b, c, d}
}

// Reversed returns the register file after step 48 implied by the target.
func (r *ReverseContext) Reversed() [4]uint32 { return r.rev }

// Searcher tests candidate keys against a fixed MD5 target, transparently
// maintaining a ReverseContext across candidates that share the same packed
// suffix (words 1..15). With the prefix-major enumeration order of the
// paper's equation (4), the context is rebuilt only once every N^4
// candidates. Not safe for concurrent use.
type Searcher struct {
	target  [4]uint32
	scratch [16]uint32
	rev     *ReverseContext
	haveCtx bool
}

// NewSearcher builds a searcher for a raw 16-byte MD5 digest.
func NewSearcher(digest [Size]byte) *Searcher {
	return &Searcher{target: StateWords(digest)}
}

// NewSearcherWords builds a searcher from pre-decoded state words.
func NewSearcherWords(target [4]uint32) *Searcher {
	return &Searcher{target: target}
}

// Test reports whether key hashes to the target. Keys longer than 55 bytes
// fall back to the streaming implementation.
func (s *Searcher) Test(key []byte) bool {
	if len(key) > MaxSingleBlockKey {
		sum := Sum(key)
		return StateWords(sum) == s.target
	}
	if err := PackKey(key, &s.scratch); err != nil {
		return false
	}
	if !s.haveCtx || !sameSuffix(&s.rev.block, &s.scratch) {
		s.rev = NewReverseContext(s.target, &s.scratch)
		s.haveCtx = true
	}
	return s.rev.Test(s.scratch[0])
}

// TestPlain is the unoptimized baseline: full 64-step hash plus digest
// comparison, no reversal, no early exit. It exists for the ablation
// benchmarks of DESIGN.md (§5.2).
func (s *Searcher) TestPlain(key []byte) bool {
	if len(key) > MaxSingleBlockKey {
		sum := Sum(key)
		return StateWords(sum) == s.target
	}
	if err := PackKey(key, &s.scratch); err != nil {
		return false
	}
	return SumPacked(&s.scratch) == s.target
}

func sameSuffix(a, b *[16]uint32) bool {
	for i := 1; i < 16; i++ {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
