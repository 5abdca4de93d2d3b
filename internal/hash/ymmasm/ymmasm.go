// Package ymmasm lowers the operations md5x's and sha1x's run screens are
// built from to amd64 vector instructions, in Plan 9 operand order
// (sources, then the destination). md5x/gen and sha1x/gen emit every step
// through one Lowering per TEXT symbol, so the AVX2 screens on YMM
// registers and the AVX-512 screens on ZMM registers are the same step
// schedule.
package ymmasm

import (
	"fmt"
	"strings"
)

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
// moves and the bitwise operations exist only in EVEX forms that name an
// element width, VMOVDQU32, VMOVDQA32, VPXORD, VPANDD and VPORD; every
// other mnemonic the screens use is spelt the same at both widths.
func (l Lowering) Op(op string) string {
	if !l.ZMM {
		return op
	}
	switch op {
	case "VMOVDQU", "VMOVDQA":
		return op + "32"
	case "VPXOR", "VPAND", "VPOR":
		return op + "D"
	}
	return op
}

// Broadcast returns register n = the 32-bit value at src in every lane,
// through the general register gp and Xn: src is a frame argument, which
// go vet's asmdecl requires to be read by an instruction of its size.
func (l Lowering) Broadcast(src, gp string, n int) []string {
	return []string{
		fmt.Sprintf("MOVL %s, %s", src, gp),
		fmt.Sprintf("VMOVD %s, X%d", gp, n),
		fmt.Sprintf("VPBROADCASTD X%d, %s", n, l.Reg(n)),
	}
}

// Word0 returns the instructions that generate a group's word 0 in the
// run screens: lane l of dst is win[l] | hi where index[l] < lim, and
// win[l] | next elsewhere, and dst is stored to out. win (the group's
// window of the runword low table), index (the group's lane numbers) and
// out are memory operands; hi, next and lim (broadcast) and tmp are
// registers. The compare is one VPCMPGTD, into tmp on AVX2 and into K1 on
// ZMM, and the select one VPBLENDVB or VPBLENDMD.
func (l Lowering) Word0(win, index, hi, next, lim, tmp, dst, out string) []string {
	sel := []string{
		fmt.Sprintf("VPCMPGTD %s, %s, %s", index, lim, tmp),
		fmt.Sprintf("VPBLENDVB %s, %s, %s, %s", tmp, hi, next, tmp),
	}
	if l.ZMM {
		sel = []string{
			fmt.Sprintf("VPCMPGTD %s, %s, K1", index, lim),
			fmt.Sprintf("VPBLENDMD %s, %s, K1, %s", hi, next, tmp),
		}
	}
	return append(sel,
		fmt.Sprintf("%s %s, %s, %s", l.Op("VPOR"), win, tmp, dst),
		fmt.Sprintf("%s %s, %s", l.Op("VMOVDQU"), dst, out))
}

// LaneIndex returns the assembler data directives of name, the file-local
// table 0, 1, ..., n-1 of 32-bit lane numbers that Word0's index operands
// point into.
func LaneIndex(name string, n int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "DATA %s<>+%d(SB)/4, $%d\n", name, 4*i, i)
	}
	fmt.Fprintf(&b, "GLOBL %s<>(SB), RODATA|NOPTR, $%d\n", name, 4*n)
	return b.String()
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
