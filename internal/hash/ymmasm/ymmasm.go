// Package ymmasm lowers the operations md5x's and sha1x's run screens are
// built from to amd64 instructions on YMM registers, in Plan 9 operand
// order (sources, then the destination). md5x/gen and sha1x/gen emit every
// step through one Lowering per TEXT symbol, so the AVX2 and AVX-512VL
// screens are the same step schedule.
package ymmasm

import "fmt"

// Lowering is the instruction set a screen is emitted in: AVX2, or
// AVX-512VL's EVEX encodings on the same sixteen YMM registers.
type Lowering struct {
	VL bool // VPROLD for a rotate, VPTERNLOGD for a boolean function
}

// Rotl returns dst = rotl(src, s), which may clobber tmp. AVX2 has no
// vector rotate: it shifts both ways and ORs the halves, shifting left
// into tmp first when src is dst so the source is read before it is
// overwritten.
func (l Lowering) Rotl(s int, src, dst, tmp string) []string {
	if l.VL {
		return []string{fmt.Sprintf("VPROLD $%d, %s, %s", s, src, dst)}
	}
	left, right := dst, tmp
	if src == dst {
		left, right = tmp, dst
	}
	return []string{
		fmt.Sprintf("VPSLLD $%d, %s, %s", s, src, left),
		fmt.Sprintf("VPSRLD $%d, %s, %s", 32-s, src, right),
		fmt.Sprintf("VPOR %s, %s, %s", tmp, dst, dst),
	}
}

// Ternlog returns t = f(b, c, d) in AVX-512VL: a copy of d and one
// VPTERNLOGD $imm, b, c, t. Bit d<<2 | c<<1 | b of imm is f of those
// three bits, so imm is f applied bitwise to the bytes whose bit i is that
// bit of i: 0xaa for b, 0xcc for c and 0xf0 for d.
func Ternlog(f func(b, c, d uint32) uint32, b, c, d, t string) []string {
	return []string{
		fmt.Sprintf("VMOVDQA %s, %s", d, t),
		fmt.Sprintf("VPTERNLOGD $0x%02x, %s, %s, %s", uint8(f(0xaa, 0xcc, 0xf0)), b, c, t),
	}
}
