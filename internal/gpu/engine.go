package gpu

import (
	"context"
	"fmt"
	"time"

	"keysearch/internal/arch"
	"keysearch/internal/compile"
	"keysearch/internal/hash/md5x"
	"keysearch/internal/hash/sha1x"
	"keysearch/internal/kernel"
	"keysearch/internal/keyspace"
	"keysearch/internal/model"
)

// Algorithm selects the hash the engine searches.
type Algorithm int

// Supported algorithms.
const (
	MD5 Algorithm = iota
	SHA1
)

// String names the algorithm.
func (a Algorithm) String() string {
	if a == SHA1 {
		return "sha1"
	}
	return "md5"
}

// Config tunes a simulated-device search.
type Config struct {
	// Optimized selects the full optimization tier (reversal + early exit
	// for MD5, early exit for SHA1); otherwise the plain kernel runs.
	Optimized bool
	// Overhead is the fixed per-dispatch cost added to the simulated time
	// (kernel launches, transfers, driver). Zero means DefaultOverhead.
	// This constant is what makes small work batches inefficient and
	// drives the paper's n_j tuning step.
	Overhead time.Duration
	// ResidentWarps overrides occupancy in the timing model (0 = max).
	ResidentWarps int
	// MaxKeysPerLaunch caps one kernel launch; larger intervals split into
	// several launches, each paying the per-dispatch overhead. This models
	// the §IV watchdog workaround: "the operating system may put a limit on
	// the maximum time that a driver ... should wait for the completion of
	// a running kernel; we can easily bypass this problem by adjusting the
	// amount of tests per call and spreading the computation over multiple
	// grids". 0 = WatchdogSeconds worth of work at the modeled rate.
	MaxKeysPerLaunch uint64
}

// WatchdogSeconds is the display-driver kernel time limit the default
// launch size stays under.
const WatchdogSeconds = 2.0

// DefaultOverhead is the default per-dispatch fixed cost. The order of
// magnitude (milliseconds) covers a host-to-device argument upload, a
// handful of kernel launches and the result read-back on 2013-era PCIe.
const DefaultOverhead = 2 * time.Millisecond

// Result reports a simulated-device search.
type Result struct {
	// Found lists the matching keys.
	Found [][]byte
	// Tested is the number of candidates evaluated.
	Tested uint64
	// SimSeconds is the modeled wall-clock time of the search on the
	// simulated device (overhead + work / modeled throughput).
	SimSeconds float64
	// Throughput is the modeled sustained device throughput (keys/s).
	Throughput float64
	// WarpInstructions counts warp instructions functionally executed.
	WarpInstructions int
	// Warps counts warp executions.
	Warps int
	// Recompiles counts kernel rebuilds due to suffix-run changes.
	Recompiles int
	// Launches counts kernel launches (interval size / MaxKeysPerLaunch,
	// rounded up).
	Launches int
}

// Engine simulates one GPU device executing search kernels: candidates are
// actually evaluated by the warp interpreter (so matches are real), and
// time is accounted with the achieved-throughput model parameterized by
// the device's published specifications.
type Engine struct {
	dev    arch.Device
	interp *WarpInterp
}

// NewEngine returns an engine for a catalog device.
func NewEngine(dev arch.Device) *Engine {
	return &Engine{dev: dev, interp: NewWarpInterp()}
}

// Device returns the simulated device.
func (e *Engine) Device() arch.Device { return e.dev }

// Profile compiles the algorithm's kernel for this device and returns its
// model profile (used for throughput estimates without running a search).
func (e *Engine) Profile(alg Algorithm, cfg Config) model.Profile {
	// A representative template: length-8 key, all words fixed.
	var block [16]uint32
	switch alg {
	case SHA1:
		_ = sha1x.PackKey([]byte("aaaaaaaa"), &block)
	default:
		_ = md5x.PackKey([]byte("aaaaaaaa"), &block)
	}
	c := e.compileFor(alg, cfg, block, [5]uint32{})
	return model.FromCompiled(c)
}

// ModelThroughput returns the modeled sustained throughput in keys/s.
func (e *Engine) ModelThroughput(alg Algorithm, cfg Config) float64 {
	p := e.Profile(alg, cfg)
	return model.Achieved(e.dev, p, model.AchievedOptions{ILP: -1, ResidentWarps: cfg.ResidentWarps})
}

// EstimateSeconds returns the modeled time to search n candidates,
// including the fixed dispatch overhead — the X(n) efficiency curve the
// tuning step of Section III probes.
func (e *Engine) EstimateSeconds(alg Algorithm, cfg Config, n uint64) float64 {
	x := e.ModelThroughput(alg, cfg)
	ov := cfg.Overhead
	if ov == 0 {
		ov = DefaultOverhead
	}
	return ov.Seconds() + float64(n)/x
}

func (e *Engine) compileFor(alg Algorithm, cfg Config, template [16]uint32, target [5]uint32) *compile.Compiled {
	var src *kernel.Program
	switch alg {
	case SHA1:
		src = kernel.BuildSHA1(kernel.SHA1Config{
			Template:  template,
			Target:    target,
			EarlyExit: cfg.Optimized,
		})
	default:
		src = kernel.BuildMD5(kernel.MD5Config{
			Template:  template,
			Target:    [4]uint32{target[0], target[1], target[2], target[3]},
			Reversal:  cfg.Optimized,
			EarlyExit: cfg.Optimized,
		})
	}
	return compile.Compile(src, compile.DefaultOptions(e.dev.CC))
}

// Search functionally executes the search kernel over the identifier
// interval iv of the key space: every candidate runs through the SIMT warp
// interpreter on the per-architecture compiled program. target is the raw
// digest (16 bytes for MD5, 20 for SHA1). Spaces must use the prefix-major
// order so that candidate runs share their packed suffix — the same
// requirement the paper's GPU threads have.
func (e *Engine) Search(ctx context.Context, space *keyspace.Space, alg Algorithm, target []byte, iv keyspace.Interval, cfg Config) (*Result, error) {
	if space.Order() != keyspace.PrefixMajor {
		return nil, fmt.Errorf("gpu: space must use prefix-major order (equation (4)), got %v", space.Order())
	}
	wantLen := 16
	if alg == SHA1 {
		wantLen = 20
	}
	if len(target) != wantLen {
		return nil, fmt.Errorf("gpu: target length %d, want %d for %s", len(target), wantLen, alg)
	}
	n, ok := iv.Len64()
	if !ok {
		return nil, fmt.Errorf("gpu: interval too large for functional simulation: %v", iv)
	}
	var tw [5]uint32
	if alg == SHA1 {
		var d [20]byte
		copy(d[:], target)
		tw = sha1x.StateWords(d)
	} else {
		var d [16]byte
		copy(d[:], target)
		w := md5x.StateWords(d)
		tw = [5]uint32{w[0], w[1], w[2], w[3]}
	}

	cur, err := keyspace.NewCursor(space, iv.Start)
	if err != nil {
		return nil, err
	}

	res := &Result{}
	var (
		prog     *kernel.Program
		template [16]uint32 // current run's template (word 0 zeroed)
		haveProg bool
		inputs   [1][arch.WarpSize]uint32
		active   LaneMask
		lanes    int
	)

	pack := func(key []byte, block *[16]uint32) error {
		if alg == SHA1 {
			return sha1x.PackKey(key, block)
		}
		return md5x.PackKey(key, block)
	}
	unpack := func(block *[16]uint32) []byte {
		if alg == SHA1 {
			return sha1x.UnpackKey(nil, block)
		}
		return md5x.UnpackKey(nil, block)
	}

	flush := func() error {
		if lanes == 0 {
			return nil
		}
		wr, err := e.interp.Run(prog, inputs[:], active)
		if err != nil {
			return err
		}
		res.Warps++
		res.WarpInstructions += wr.Executed
		if wr.Survivors != 0 {
			for lane := 0; lane < arch.WarpSize; lane++ {
				if wr.Survivors.Lane(lane) {
					block := template
					block[0] = inputs[0][lane]
					res.Found = append(res.Found, unpack(&block))
				}
			}
		}
		active, lanes = 0, 0
		return nil
	}

	var block [16]uint32
	for i := uint64(0); i < n; i++ {
		if i%4096 == 0 && ctx.Err() != nil {
			return res, ctx.Err()
		}
		if err := pack(cur.Key(), &block); err != nil {
			return nil, err
		}
		word0 := block[0]
		block[0] = 0
		if !haveProg || block != template {
			if err := flush(); err != nil {
				return nil, err
			}
			template = block
			c := e.compileFor(alg, cfg, template, tw)
			prog = c.Program
			haveProg = true
			res.Recompiles++
		}
		inputs[0][lanes] = word0
		active |= 1 << uint(lanes)
		lanes++
		res.Tested++
		if lanes == arch.WarpSize {
			if err := flush(); err != nil {
				return nil, err
			}
		}
		if i+1 < n && !cur.Next() {
			return nil, fmt.Errorf("gpu: space exhausted %d candidates early", n-i-1)
		}
	}
	if err := flush(); err != nil {
		return nil, err
	}

	res.Throughput = e.ModelThroughput(alg, cfg)
	ov := cfg.Overhead
	if ov == 0 {
		ov = DefaultOverhead
	}
	maxLaunch := cfg.MaxKeysPerLaunch
	if maxLaunch == 0 {
		maxLaunch = uint64(WatchdogSeconds * res.Throughput)
		if maxLaunch == 0 {
			maxLaunch = 1
		}
	}
	res.Launches = int((res.Tested + maxLaunch - 1) / maxLaunch)
	if res.Launches == 0 {
		res.Launches = 1
	}
	res.SimSeconds = float64(res.Launches)*ov.Seconds() + float64(res.Tested)/res.Throughput
	return res, nil
}

// SearchWhole is Search over the entire space.
func (e *Engine) SearchWhole(ctx context.Context, space *keyspace.Space, alg Algorithm, target []byte, cfg Config) (*Result, error) {
	return e.Search(ctx, space, alg, target, space.Whole(), cfg)
}
