package sha1x

// screen16 is finalE on sixteen candidates at once, w[0..7] and w[8..15]
// in two interleaved groups of eight YMM lanes (screen_amd64.s, generated
// by sha1x/gen): e[l] is candidate w[l]'s final E word, the digest's bytes
// [16:20]. It reads the run's schedule from s.c and s.add as split leaves
// them (rehigh's entries are not used), and needs AVX2.
//
//go:noescape
func screen16(s *RunSearcher, w, e *[16]uint32)

// screen16Z is screen16 in one group of sixteen ZMM lanes, lowered to
// AVX-512F: one VPROLD per rotate and one VPTERNLOGD per round function,
// with word 0's rotations held in registers instead of a stack frame. It
// needs AVX-512F.
//
//go:noescape
func screen16Z(s *RunSearcher, w, e *[16]uint32)
