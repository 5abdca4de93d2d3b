// Package ymmasm lowers the operations md5x's and sha1x's run screens are
// built from to amd64 vector instructions, in Plan 9 operand order
// (sources, then the destination). md5x/gen and sha1x/gen emit every step
// through one Lowering per TEXT symbol, so the AVX2 screens on YMM
// registers and the AVX-512 screens on ZMM registers are the same step
// schedule.
package ymmasm

import "fmt"

// Lowering is the instruction set and register width a screen is emitted
// in: AVX2 on YMM registers, or AVX-512F on ZMM registers.
type Lowering struct {
	ZMM bool // ZMM registers; VPROLD for a rotate, VPTERNLOGD for a boolean function
}

// Reg names vector register n: Yn, or Zn on ZMM.
func (l Lowering) Reg(n int) string {
	if l.ZMM {
		return fmt.Sprintf("Z%d", n)
	}
	return fmt.Sprintf("Y%d", n)
}

// Bytes is the width of one register: 32, or 64 on ZMM.
func (l Lowering) Bytes() int {
	if l.ZMM {
		return 64
	}
	return 32
}

// Op spells the AVX2 mnemonic op as the Lowering emits it. On ZMM the
// moves and the XOR exist only in EVEX forms that name an element width,
// VMOVDQU32, VMOVDQA32 and VPXORD; every other mnemonic the screens use
// is spelt the same at both widths.
func (l Lowering) Op(op string) string {
	if !l.ZMM {
		return op
	}
	switch op {
	case "VMOVDQU", "VMOVDQA":
		return op + "32"
	case "VPXOR":
		return "VPXORD"
	}
	return op
}

// Rotl returns dst = rotl(src, s), which may clobber tmp. AVX2 has no
// vector rotate: it shifts both ways and ORs the halves, shifting left
// into tmp first when src is dst so the source is read before it is
// overwritten.
func (l Lowering) Rotl(s int, src, dst, tmp string) []string {
	if l.ZMM {
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

// Ternlog returns t = f(b, c, d) in AVX-512: a copy of d and one
// VPTERNLOGD $imm, b, c, t. Bit d<<2 | c<<1 | b of imm is f of those
// three bits, so imm is f applied bitwise to the bytes whose bit i is that
// bit of i: 0xaa for b, 0xcc for c and 0xf0 for d.
func (l Lowering) Ternlog(f func(b, c, d uint32) uint32, b, c, d, t string) []string {
	return []string{
		fmt.Sprintf("%s %s, %s", l.Op("VMOVDQA"), d, t),
		fmt.Sprintf("VPTERNLOGD $0x%02x, %s, %s, %s", uint8(f(0xaa, 0xcc, 0xf0)), b, c, t),
	}
}
