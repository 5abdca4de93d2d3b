package sha1x

// screen16 is finalE on sixteen candidates at once, w[0..7] and w[8..15]
// in two interleaved groups of eight YMM lanes (screen_amd64.s, generated
// by sha1x/gen): e[l] is candidate w[l]'s final E word, the digest's bytes
// [16:20]. It reads the run's schedule from s.c and s.add as split leaves
// them (rehigh's entries are not used), and needs AVX2.
//
//go:noescape
func screen16(s *RunSearcher, w, e *[16]uint32)

// screen16VL is screen16 lowered to AVX-512VL on the same YMM registers
// and frame: one VPROLD per rotate and one VPTERNLOGD per round function.
// It needs AVX-512F and AVX-512VL.
//
//go:noescape
func screen16VL(s *RunSearcher, w, e *[16]uint32)
