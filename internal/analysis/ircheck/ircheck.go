// Package ircheck statically verifies kernel-IR programs and derives the
// dataflow facts the throughput model consumes.
//
// The paper's Section VI model is built entirely on static machine-code
// analysis — instruction-class counts and dependency structure read out of
// cuobjdump -sass (Tables III–VI). This package is the corresponding
// correctness layer for our virtual ISA: a verifier that proves SSA
// well-formedness and per-architecture legality after every compile pass
// (so a lowering or folding step that drops, duplicates or illegally
// reorders an operation is caught at the pass that introduced it, not by
// whichever differential test happens to execute the broken path), plus a
// dependency-chain analyzer (see dataflow.go) that turns the hand-set
// dual-issue fraction δ and ILP bound into derived facts.
package ircheck

import (
	"fmt"
	"strings"

	"keysearch/internal/arch"
	"keysearch/internal/kernel"
)

// Rule identifies which verifier rule a violation broke.
type Rule string

// Verifier rules. SSA rules hold at every pipeline stage; legality rules
// are enforced on machine programs (Options.CheckArch); tidiness rules
// only at the end of the pipeline (Options.RequireTidy).
const (
	// SSA well-formedness.
	RuleShape       Rule = "shape"        // malformed program header (reg counts, outputs)
	RuleUnknownOp   Rule = "unknown-op"   // operation outside the virtual ISA
	RuleDstBounds   Rule = "dst-bounds"   // destination register out of range
	RuleWriteInput  Rule = "write-input"  // instruction overwrites an input register
	RuleRedefine    Rule = "redefine"     // second assignment to an SSA register
	RuleUseUndef    Rule = "use-undef"    // operand reads a register with no prior def
	RuleOperand     Rule = "operand"      // operand register index out of range
	RuleShiftRange  Rule = "shift-range"  // shift/rotate amount outside its legal range
	RuleSpuriousSh  Rule = "spurious-sh"  // non-shift operation carries a shift amount
	RuleSpuriousB   Rule = "spurious-b"   // unary operation carries a live B operand
	RuleExitShape   Rule = "exit-shape"   // exit check writes a destination
	RuleOutputUndef Rule = "output-undef" // program output register never defined
	// Per-architecture legality (Tables III–VI gating).
	RulePseudo Rule = "pseudo"    // pseudo-op survives into a machine program
	RuleArch   Rule = "arch-gate" // operation illegal on the target architecture
	// Multi-target pre-screen integrity (enforced at every stage: a broken
	// bank would silently drop keys, not just miscompile).
	RuleBloomBank Rule = "bloom-bank" // LDC.BLOOM with a missing or non-power-of-two bank
	// Tidiness (end-of-pipeline state).
	RuleNop  Rule = "nop"       // OpNop placeholder survives compaction
	RuleMov  Rule = "mov"       // un-propagated copy survives
	RuleDead Rule = "dead-code" // result never observed by an exit or output
)

// Violation is one broken rule at one instruction.
type Violation struct {
	Rule  Rule
	Index int // instruction index, or -1 for program-level violations
	Msg   string
}

func (v Violation) String() string {
	if v.Index < 0 {
		return fmt.Sprintf("%s: %s", v.Rule, v.Msg)
	}
	return fmt.Sprintf("%s at #%d: %s", v.Rule, v.Index, v.Msg)
}

// Options selects which rule families Check enforces.
type Options struct {
	// AllowPseudo permits OpRotl, the source-level pseudo rotation.
	// Source programs and every pipeline stage before rotate lowering
	// need it; machine programs must not.
	AllowPseudo bool
	// AllowNop permits OpNop placeholders (mid-pipeline state; passes fold
	// instructions to Nop and compact strips them at the very end).
	AllowNop bool
	// AllowMov permits OpMov copies (builder output; copy propagation
	// erases them).
	AllowMov bool
	// CheckArch enforces the per-architecture legality rules of Arch.
	CheckArch bool
	// Arch is the target architecture for legality gating.
	Arch arch.CC
	// RequireTidy additionally rejects dead instructions — the state the
	// pipeline must end in after dead-code elimination and compaction.
	RequireTidy bool
}

// Source returns the options for builder-produced source programs:
// pseudo rotations and copies allowed, no architecture gating.
func Source() Options { return Options{AllowPseudo: true, AllowNop: true, AllowMov: true} }

// MidPass returns the options for programs between compile passes: like
// Source (rotates may not be lowered yet, folds leave Nops behind).
func MidPass() Options { return Source() }

// Machine returns the options for fully compiled programs targeting cc:
// no pseudo-ops, no placeholders, no dead code, legality enforced. MOV
// stays legal — a copy that materializes a constant program output has no
// register to propagate into (real machine code keeps an MOV32I there
// too); copy propagation erases every other copy.
func Machine(cc arch.CC) Options {
	return Options{AllowMov: true, CheckArch: true, Arch: cc, RequireTidy: true}
}

// Check verifies p against opt and returns every violation found. A nil
// or empty result means the program is well-formed.
func Check(p *kernel.Program, opt Options) []Violation {
	var vs []Violation
	add := func(rule Rule, idx int, format string, args ...any) {
		vs = append(vs, Violation{Rule: rule, Index: idx, Msg: fmt.Sprintf(format, args...)})
	}

	if p.NumInputs < 0 || p.NumRegs < p.NumInputs {
		add(RuleShape, -1, "register file %d smaller than input count %d", p.NumRegs, p.NumInputs)
		return vs // everything below indexes registers; bail out
	}

	// defined[r] is true once r has a definition (inputs are defined at
	// entry). defAt records the defining instruction for diagnostics.
	defined := make([]bool, p.NumRegs)
	for r := 0; r < p.NumInputs; r++ {
		defined[r] = true
	}
	defAt := make([]int, p.NumRegs)
	usesBloom := false

	checkOperand := func(idx int, name string, o kernel.Operand) {
		if o.IsImm {
			return
		}
		if o.Reg < 0 || o.Reg >= p.NumRegs {
			add(RuleOperand, idx, "operand %s reads r%d outside register file [0,%d)", name, o.Reg, p.NumRegs)
			return
		}
		if !defined[o.Reg] {
			add(RuleUseUndef, idx, "operand %s reads r%d before any definition", name, o.Reg)
		}
	}

	for idx, in := range p.Instrs {
		switch in.Op {
		case kernel.OpNop:
			if !opt.AllowNop {
				add(RuleNop, idx, "NOP placeholder survives compaction")
			}
			continue
		case kernel.OpMov:
			if !opt.AllowMov {
				add(RuleMov, idx, "un-propagated MOV survives copy propagation")
			}
		case kernel.OpRotl:
			if !opt.AllowPseudo {
				add(RulePseudo, idx, "pseudo ROTL survives into a machine program")
			}
		case kernel.OpAdd, kernel.OpAnd, kernel.OpOr, kernel.OpXor, kernel.OpNot,
			kernel.OpShl, kernel.OpShr, kernel.OpAndN, kernel.OpOrN,
			kernel.OpIMADHi, kernel.OpISCADD, kernel.OpPerm, kernel.OpFunnel,
			kernel.OpExitNE, kernel.OpBloomBit:
		default:
			add(RuleUnknownOp, idx, "operation %d outside the virtual ISA", int(in.Op))
			continue
		}

		if in.Op == kernel.OpBloomBit {
			usesBloom = true
		}
		if opt.CheckArch {
			archGate(add, idx, in.Op, opt.Arch)
		}

		// Shift-amount legality per operation family.
		switch in.Op {
		case kernel.OpShl, kernel.OpShr:
			if in.Sh > 31 {
				add(RuleShiftRange, idx, "%v shift amount %d outside [0,31]", in.Op, in.Sh)
			}
		case kernel.OpRotl, kernel.OpFunnel, kernel.OpIMADHi:
			// A zero rotation is the identity; builders and lowering never
			// emit it, and IMAD.HI with sh=0 would read (a >> 32).
			if in.Sh < 1 || in.Sh > 31 {
				add(RuleShiftRange, idx, "%v rotate amount %d outside [1,31]", in.Op, in.Sh)
			}
		case kernel.OpISCADD:
			if in.Sh < 1 || in.Sh > 31 {
				add(RuleShiftRange, idx, "%v scale amount %d outside [1,31]", in.Op, in.Sh)
			}
		case kernel.OpPerm:
			// PRMT performs byte rotations only.
			if in.Sh != 8 && in.Sh != 16 && in.Sh != 24 {
				add(RuleShiftRange, idx, "PRMT rotation %d not byte-aligned (8/16/24)", in.Sh)
			}
		default:
			if in.Sh != 0 {
				add(RuleSpuriousSh, idx, "%v carries shift amount %d", in.Op, in.Sh)
			}
		}

		// Unary operations must carry an inert B (the canonical encoding is
		// Imm(0)); a live register there would miscount uses and liveness.
		switch in.Op {
		case kernel.OpNot, kernel.OpMov, kernel.OpShl, kernel.OpShr,
			kernel.OpRotl, kernel.OpPerm, kernel.OpFunnel, kernel.OpBloomBit:
			if !in.B.IsImm || in.B.Imm != 0 {
				add(RuleSpuriousB, idx, "unary %v carries live B operand %v", in.Op, in.B)
			}
			checkOperand(idx, "A", in.A)
		case kernel.OpExitNE:
			checkOperand(idx, "A", in.A)
			checkOperand(idx, "B", in.B)
		default:
			checkOperand(idx, "A", in.A)
			checkOperand(idx, "B", in.B)
		}

		if in.Op == kernel.OpExitNE {
			if in.Dst != -1 {
				add(RuleExitShape, idx, "EXIT.NE writes destination r%d", in.Dst)
			}
			continue
		}

		// Destination: fresh SSA register outside the input window.
		if in.Dst < 0 || in.Dst >= p.NumRegs {
			add(RuleDstBounds, idx, "destination r%d outside register file [0,%d)", in.Dst, p.NumRegs)
			continue
		}
		if in.Dst < p.NumInputs {
			add(RuleWriteInput, idx, "destination r%d overwrites an input register", in.Dst)
			continue
		}
		if defined[in.Dst] {
			add(RuleRedefine, idx, "r%d already defined at #%d", in.Dst, defAt[in.Dst])
			continue
		}
		defined[in.Dst] = true
		defAt[in.Dst] = idx
	}

	for i, r := range p.Outputs {
		if r < 0 || r >= p.NumRegs {
			add(RuleShape, -1, "output %d references r%d outside register file [0,%d)", i, r, p.NumRegs)
			continue
		}
		if !defined[r] {
			add(RuleOutputUndef, -1, "output %d reads r%d, which is never defined", i, r)
		}
	}

	// Bank integrity holds at every stage: a Bloom probe against a missing
	// bank rejects every candidate (silently dropping keys), and a
	// non-power-of-two bank breaks the mask-wrap indexing contract of
	// Program.BloomBit. Either way the search is wrong before any
	// architecture question arises.
	if usesBloom {
		switch n := len(p.Bloom); {
		case n == 0:
			add(RuleBloomBank, -1, "LDC.BLOOM used but the program has no Bloom bank")
		case n&(n-1) != 0:
			add(RuleBloomBank, -1, "Bloom bank length %d words is not a power of two", n)
		}
	}

	if opt.RequireTidy {
		for _, idx := range Dead(p) {
			add(RuleDead, idx, "%v result r%d is never observed", p.Instrs[idx].Op, p.Instrs[idx].Dst)
		}
	}
	return vs
}

// archGate enforces the per-architecture instruction gating the paper's
// Tables III–VI imply: PRMT exists from cc2.x (and pays from cc3.0), the
// funnel shift is the cc3.5 extension, and the IMAD/ISCADD rotate lowering
// replaces the cc1.x SHL+SHR+ADD triple only from cc2.x on.
func archGate(add func(Rule, int, string, ...any), idx int, op kernel.Op, cc arch.CC) {
	switch op {
	case kernel.OpPerm:
		if !hasPerm(cc) {
			add(RuleArch, idx, "PRMT illegal on cc %v (requires cc >= 2.x)", cc)
		}
	case kernel.OpFunnel:
		if !cc.HasFunnelShift() {
			add(RuleArch, idx, "funnel shift illegal on cc %v (requires cc 3.5)", cc)
		}
	case kernel.OpIMADHi, kernel.OpISCADD:
		if !cc.HasIMAD() {
			add(RuleArch, idx, "%v illegal on cc %v (MAD rotate lowering requires cc >= 2.0)", op, cc)
		}
	case kernel.OpBloomBit:
		// Legal on every modeled architecture: constant memory with a
		// broadcast cache exists from cc1.x on — it is where the paper keeps
		// the target hash and common substring.
	}
}

// hasPerm reports whether PRMT exists on the architecture. This is
// distinct from arch.CC.HasBytePerm, which answers the profitability
// question ("is PRMT worth using") the compiler asks: the instruction is
// part of the ISA from compute capability 2.0 on, but the paper only
// applies it on cc3.0 where the shift group is the bottleneck.
func hasPerm(cc arch.CC) bool { return cc >= arch.CC20 }

// Dead returns the indices of instructions whose results are never
// observed through an exit check or a program output — the instructions
// dead-code elimination must remove. Nop placeholders are not reported
// (they carry no result); exit checks are always live.
func Dead(p *kernel.Program) []int {
	live := make([]bool, p.NumRegs)
	for _, r := range p.Outputs {
		if r >= 0 && r < p.NumRegs {
			live[r] = true
		}
	}
	mark := func(o kernel.Operand) {
		if !o.IsImm && o.Reg >= 0 && o.Reg < p.NumRegs {
			live[o.Reg] = true
		}
	}
	for _, in := range p.Instrs {
		if in.Op == kernel.OpExitNE {
			mark(in.A)
			mark(in.B)
		}
	}
	var dead []int
	for i := len(p.Instrs) - 1; i >= 0; i-- {
		in := p.Instrs[i]
		if in.Op == kernel.OpNop || in.Op == kernel.OpExitNE {
			continue
		}
		if in.Dst < 0 || in.Dst >= p.NumRegs || !live[in.Dst] {
			dead = append(dead, i)
			continue
		}
		mark(in.A)
		mark(in.B)
	}
	// Reverse into program order.
	for l, r := 0, len(dead)-1; l < r; l, r = l+1, r-1 {
		dead[l], dead[r] = dead[r], dead[l]
	}
	return dead
}

// Verify is Check folded into a single error: nil when the program is
// well-formed, otherwise one error listing every violation.
func Verify(p *kernel.Program, opt Options) error {
	vs := Check(p, opt)
	if len(vs) == 0 {
		return nil
	}
	lines := make([]string, len(vs))
	for i, v := range vs {
		lines[i] = v.String()
	}
	return fmt.Errorf("ircheck: program %s: %d violation(s):\n  %s",
		p.Name, len(vs), strings.Join(lines, "\n  "))
}
