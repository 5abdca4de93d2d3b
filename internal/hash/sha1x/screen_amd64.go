package sha1x

// screen16 is finalE and the word-4 probe on sixteen candidates at once,
// in two interleaved groups of eight YMM lanes (screen_amd64.s, generated
// by sha1x/gen). Candidate l's word 0 is win[l] | hi for l < lim and
// win[l] | next from there on — win is the runword low table from the
// first candidate's low value, lim how many candidates come before the
// table wraps — and the kernel stores it to w[l]; bit l of hit is set when
// the candidate's final E word, the digest's bytes [16:20], passes
// s.word4.MayContain. It reads the run's schedule from s.c and s.add as
// split leaves them (rehigh's entries are not used), and needs AVX2.
//
//go:noescape
func screen16(s *RunSearcher, w, win *[16]uint32, hi, next uint32, lim int32) (hit uint)

// screen16Z is screen16 in one group of sixteen ZMM lanes, lowered to
// AVX-512F: one VPROLD per rotate and one VPTERNLOGD per round function,
// with word 0's rotations held in registers instead of a stack frame. It
// needs AVX-512F.
//
//go:noescape
func screen16Z(s *RunSearcher, w, win *[16]uint32, hi, next uint32, lim int32) (hit uint)
