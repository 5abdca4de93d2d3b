// Package hostcpu probes, once, the CPU features the hash kernels choose
// their code path by. md5x and sha1x each copy AVX2 into their own
// unexported switch, which their tests flip to run both paths on one
// host.
package hostcpu

// AVX2 reports whether the CPU has AVX2 and the OS saves the YMM
// registers across context switches. It is set once, at start-up, and is
// false on every architecture but amd64.
var AVX2 = hasAVX2()
