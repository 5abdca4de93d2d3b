package hostcpu

import (
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// TestProbesMatchProcCPUInfo: on Linux, AVX2 and AVX512VL agree with the
// flags the kernel reports for the first CPU — avx2, and avx512f with
// avx512vl — which it lists only when the OS also saves their register
// state.
func TestProbesMatchProcCPUInfo(t *testing.T) {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("no /proc/cpuinfo: %v", err)
	}
	var flags []string
	for _, line := range strings.Split(string(raw), "\n") {
		if name, value, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "flags" {
			flags = strings.Fields(value)
			break
		}
	}
	if flags == nil {
		t.Skip("/proc/cpuinfo lists no flags")
	}
	has := func(f string) bool { return slices.Contains(flags, f) }
	if runtime.GOARCH != "amd64" {
		has = func(string) bool { return false }
	}
	if want := has("avx2"); AVX2 != want {
		t.Errorf("AVX2 = %v, /proc/cpuinfo avx2 = %v", AVX2, want)
	}
	if want := has("avx512f") && has("avx512vl"); AVX512VL != want {
		t.Errorf("AVX512VL = %v, /proc/cpuinfo avx512f and avx512vl = %v", AVX512VL, want)
	}
}

// TestLevels: Best is the fastest level the probes allow, and Levels
// counts down from it to LevelGo.
func TestLevels(t *testing.T) {
	want := LevelGo
	switch {
	case AVX512VL:
		want = LevelAVX512VL
	case AVX2:
		want = LevelAVX2
	}
	if Best != want {
		t.Errorf("Best = %d with AVX2 %v, AVX512VL %v; want %d", Best, AVX2, AVX512VL, want)
	}
	ls := Levels()
	if len(ls) != int(Best)+1 || ls[0] != Best || ls[len(ls)-1] != LevelGo {
		t.Errorf("Levels() = %v with Best %d", ls, Best)
	}
}
