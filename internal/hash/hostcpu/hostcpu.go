// Package hostcpu probes, once, the CPU features the hash kernels choose
// their code path by, and ranks them as Levels. md5x and sha1x each copy
// Best into their own unexported switch, which their tests set to every
// level in Levels to run each path the host can run.
package hostcpu

// AVX2 reports whether the CPU has AVX2 and the OS saves the YMM
// registers across context switches. It is set once, at start-up, and is
// false on every architecture but amd64.
var AVX2 = hasAVX2()

// AVX512VL reports whether, beyond AVX2, the CPU has AVX-512F and
// AVX-512VL — the EVEX encodings of VPROLD and VPTERNLOGD on YMM
// registers — and the OS saves the opmask and ZMM state. It is set once,
// at start-up, and is false on every architecture but amd64.
var AVX512VL = AVX2 && hasAVX512VL()

// Level is an instruction set the run screens are lowered to, slowest
// first.
type Level uint8

const (
	// LevelGo is no vector screen: the Go kernels.
	LevelGo Level = iota
	// LevelAVX2 is the AVX2 screens.
	LevelAVX2
	// LevelAVX512VL is the AVX-512VL screens, on the same YMM registers.
	LevelAVX512VL
)

// Best is the fastest Level this CPU runs: AVX-512VL, then AVX2, then Go.
var Best = best()

func best() Level {
	switch {
	case AVX512VL:
		return LevelAVX512VL
	case AVX2:
		return LevelAVX2
	}
	return LevelGo
}

// Levels returns every Level this CPU runs, fastest first.
func Levels() []Level {
	var ls []Level
	for l := Best; ; l-- {
		ls = append(ls, l)
		if l == LevelGo {
			return ls
		}
	}
}
