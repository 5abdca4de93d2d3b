// Package baseline models the competitor tools of Table VIII and the
// alternative designs of Section II as ablations of our kernel, so the
// comparison columns can be regenerated rather than copied:
//
//   - Cryptohaze Multiforcer — a generic kernel: no reversal, no early
//     exit, no byte-perm tuning. Its modeled throughput tracks the
//     published numbers closely because the missing optimizations are
//     exactly what separates Table IV from Table VI.
//   - BarsWF — the tool that invented the reversal trick: reversal and
//     early exit but no per-architecture tuning; on Kepler (which BarsWF
//     predates) it additionally runs at reduced occupancy, which is how
//     its published 72% efficiency is reproduced.
//   - Vu et al. [7] — the homogeneous GPU algorithm that materializes all
//     candidate strings in device memory before hashing; modeled for its
//     memory footprint, which the paper criticizes ("may require a large
//     amount of memory (some Gbytes) ... not practical" versus "less than
//     1 Kbyte" for ours).
package baseline

import (
	"math/big"

	"keysearch/internal/arch"
	"keysearch/internal/compile"
	"keysearch/internal/kernel"
	"keysearch/internal/keyspace"
	"keysearch/internal/model"
)

// Tool identifies a modeled implementation.
type Tool int

// The modeled tools.
const (
	Ours Tool = iota
	BarsWF
	Cryptohaze
)

// String names the tool.
func (t Tool) String() string {
	switch t {
	case Ours:
		return "our approach"
	case BarsWF:
		return "BarsWF"
	case Cryptohaze:
		return "Cryptohaze"
	default:
		return "unknown"
	}
}

// Algorithm mirrors gpu.Algorithm without importing it (avoid cycles).
type Algorithm int

// Supported algorithms.
const (
	MD5 Algorithm = iota
	SHA1
)

// kernelConfig returns the kernel build options the tool corresponds to.
func kernelConfig(tool Tool, alg Algorithm, cc arch.CC) (src *kernel.Program, opts compile.Options) {
	var template [16]uint32
	template[14] = 8 << 3 // a representative 8-character key template
	switch alg {
	case SHA1:
		cfg := kernel.SHA1Config{Template: template}
		switch tool {
		case Ours:
			cfg.EarlyExit = true
			opts = compile.DefaultOptions(cc)
		case BarsWF:
			// BarsWF never shipped SHA1 on CUDA; modeled like Cryptohaze.
			opts = compile.Options{CC: cc}
		case Cryptohaze:
			opts = compile.Options{CC: cc}
		}
		src = kernel.BuildSHA1(cfg)
	default:
		cfg := kernel.MD5Config{Template: template}
		switch tool {
		case Ours:
			cfg.Reversal = true
			cfg.EarlyExit = true
			opts = compile.DefaultOptions(cc)
		case BarsWF:
			// Reversal (BarsWF invented it) and early exit, but no
			// architecture-specific lowering tweaks.
			cfg.Reversal = true
			cfg.EarlyExit = true
			opts = compile.Options{CC: cc}
		case Cryptohaze:
			opts = compile.Options{CC: cc}
		}
		src = kernel.BuildMD5(cfg)
	}
	return src, opts
}

// Throughput returns the modeled sustained throughput of a tool on a
// device, in keys/s.
func Throughput(tool Tool, alg Algorithm, dev arch.Device) float64 {
	src, opts := kernelConfig(tool, alg, dev.CC)
	c := compile.Compile(src, opts)
	p := model.FromCompiled(c)
	achieved := model.AchievedOptions{ILP: -1}
	if tool == BarsWF && (dev.CC == arch.CC30 || dev.CC == arch.CC35) {
		// BarsWF predates Kepler; its launch configuration reaches about
		// half occupancy there (its published 1340 of 1851 MKey/s).
		achieved.ResidentWarps = arch.Spec(dev.CC).MaxResidentWarps / 2
	}
	if tool == Cryptohaze {
		// Cryptohaze regenerates each candidate with the full f(i)
		// conversion instead of the next operator; the paper measured the
		// conversion at a few percent of the hash cost for short keys.
		return 0.95 * model.Achieved(dev, p, achieved)
	}
	return model.Achieved(dev, p, achieved)
}

// Theoretical returns the device's peak for our kernel (the Table VIII
// "theoretical" row).
func Theoretical(alg Algorithm, dev arch.Device) float64 {
	src, opts := kernelConfig(Ours, alg, dev.CC)
	c := compile.Compile(src, opts)
	return model.Theoretical(dev, model.FromCompiled(c))
}

// VuMemoryBytes returns the device memory the Vu et al. approach needs to
// materialize every candidate of a space before hashing — each candidate
// stored as a padded 64-byte block, the layout their kernel consumes.
// For the paper's 8-character alphanumeric space this is astronomically
// beyond any GPU, which is the point of the comparison.
func VuMemoryBytes(space *keyspace.Space) *big.Int {
	size := new(big.Int).SetBytes(space.Size().AppendBytes(nil))
	return size.Mul(size, big.NewInt(64))
}

// OursMemoryBytes returns our kernel's device-memory footprint: the packed
// template (64 B), the reversed target (16 B), the charset (<=256 B), and
// a found-key buffer — "less than 1 Kbyte" (Section II).
func OursMemoryBytes() int { return 64 + 16 + 256 + 512 }
