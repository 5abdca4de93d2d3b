package hostcpu

import (
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// TestProbesMatchProcCPUInfo: on Linux, AVX2 and AVX512 agree with the
// flags the kernel reports for the first CPU — avx2 and avx512f — which
// it lists only when the OS also saves their register state. Without a
// readable /proc/cpuinfo the test skips.
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
	if want := has("avx2") && has("avx512f"); AVX512 != want {
		t.Errorf("AVX512 = %v, /proc/cpuinfo avx2 %v and avx512f %v", AVX512, has("avx2"), has("avx512f"))
	}
}

// TestLevels: Best is the fastest level the probes allow, All counts
// down from LevelAVX512 to LevelGo, and Levels is the part of All from
// Best on.
func TestLevels(t *testing.T) {
	want := LevelGo
	switch {
	case AVX512:
		want = LevelAVX512
	case AVX2:
		want = LevelAVX2
	}
	if Best != want {
		t.Errorf("Best = %d with AVX2 %v, AVX512 %v; want %d", Best, AVX2, AVX512, want)
	}
	if all := All(); !slices.Equal(all, []Level{LevelAVX512, LevelAVX2, LevelGo}) {
		t.Errorf("All() = %v", all)
	}
	ls := Levels()
	if len(ls) != int(Best)+1 || ls[0] != Best || ls[len(ls)-1] != LevelGo {
		t.Errorf("Levels() = %v with Best %d", ls, Best)
	}
}
