// Package hostcpu probes, once, the CPU features the hash kernels choose
// their code path by, and ranks them as Levels. md5x and sha1x each copy
// Best into their own unexported switch, which their tests set to every
// level in Levels to run each path the host can run.
//
// The AVX-512 level is AVX-512F alone: the ZMM screens use VPROLD,
// VPTERNLOGD, VPCMPEQD into an opmask register and KMOVW, all of them
// AVX-512F on 512-bit registers. On the reference host, a Sapphire Rapids
// Xeon, 512-bit integer operations execute on two ports and a burst of
// them showed no measurable frequency licence drop (EXPERIMENTS.md, "ZMM
// on this host").
package hostcpu

// AVX2 reports whether the CPU has AVX2 and the OS saves the YMM
// registers across context switches. It is set once, at start-up, and is
// false on every architecture but amd64.
var AVX2 = hasAVX2()

// AVX512 reports whether, beyond AVX2, the CPU has AVX-512F — VPROLD,
// VPTERNLOGD, opmask compares and KMOVW on ZMM registers — and the OS
// saves the opmask and ZMM state. It is set once, at start-up, and is
// false on every architecture but amd64.
var AVX512 = AVX2 && hasAVX512()

// Level is an instruction set the run screens are lowered to, slowest
// first.
type Level uint8

const (
	// LevelGo is no vector screen: the Go kernels.
	LevelGo Level = iota
	// LevelAVX2 is the AVX2 screens, on YMM registers.
	LevelAVX2
	// LevelAVX512 is the AVX-512F screens, on ZMM registers.
	LevelAVX512

	numLevels // one past the fastest Level
)

// Best is the fastest Level this CPU runs: AVX-512, then AVX2, then Go.
var Best = best()

func best() Level {
	switch {
	case AVX512:
		return LevelAVX512
	case AVX2:
		return LevelAVX2
	}
	return LevelGo
}

// All returns every Level, fastest first, whether this CPU runs it or
// not.
func All() []Level {
	ls := make([]Level, numLevels)
	for i := range ls {
		ls[i] = numLevels - 1 - Level(i)
	}
	return ls
}

// Levels returns every Level this CPU runs, fastest first.
func Levels() []Level { return All()[numLevels-1-Best:] }
