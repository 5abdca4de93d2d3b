package ircheck

import (
	"strings"
	"testing"

	"keysearch/internal/arch"
	"keysearch/internal/kernel"
)

// prog builds a 2-input program around the given instructions.
func prog(instrs []kernel.Instr, numRegs int, outputs ...int) *kernel.Program {
	return &kernel.Program{
		Name: "t", NumInputs: 2, NumRegs: numRegs, Instrs: instrs, Outputs: outputs,
	}
}

func wantRule(t *testing.T, vs []Violation, rule Rule) {
	t.Helper()
	for _, v := range vs {
		if v.Rule == rule {
			return
		}
	}
	t.Fatalf("violations %v missing rule %q", vs, rule)
}

func wantClean(t *testing.T, p *kernel.Program, opt Options) {
	t.Helper()
	if err := Verify(p, opt); err != nil {
		t.Fatalf("expected clean program: %v", err)
	}
}

func TestWellFormedAccepted(t *testing.T) {
	p := prog([]kernel.Instr{
		{Op: kernel.OpAdd, Dst: 2, A: kernel.R(0), B: kernel.R(1)},
		{Op: kernel.OpXor, Dst: 3, A: kernel.R(2), B: kernel.Imm(0x5a5a5a5a)},
		{Op: kernel.OpExitNE, Dst: -1, A: kernel.R(3), B: kernel.Imm(7)},
	}, 4, 3)
	wantClean(t, p, Source())
	wantClean(t, p, Machine(arch.CC1x))
}

func TestUseBeforeDef(t *testing.T) {
	p := prog([]kernel.Instr{
		{Op: kernel.OpAdd, Dst: 2, A: kernel.R(3), B: kernel.R(1)}, // r3 defined later
		{Op: kernel.OpXor, Dst: 3, A: kernel.R(0), B: kernel.R(1)},
	}, 4, 2, 3)
	wantRule(t, Check(p, Source()), RuleUseUndef)
}

func TestSingleAssignment(t *testing.T) {
	p := prog([]kernel.Instr{
		{Op: kernel.OpAdd, Dst: 2, A: kernel.R(0), B: kernel.R(1)},
		{Op: kernel.OpXor, Dst: 2, A: kernel.R(0), B: kernel.R(1)},
	}, 3, 2)
	wantRule(t, Check(p, Source()), RuleRedefine)
}

func TestWriteToInput(t *testing.T) {
	p := prog([]kernel.Instr{
		{Op: kernel.OpAdd, Dst: 1, A: kernel.R(0), B: kernel.Imm(1)},
	}, 3, 1)
	wantRule(t, Check(p, Source()), RuleWriteInput)
}

func TestDestinationBounds(t *testing.T) {
	p := prog([]kernel.Instr{
		{Op: kernel.OpAdd, Dst: 7, A: kernel.R(0), B: kernel.R(1)},
	}, 3)
	wantRule(t, Check(p, Source()), RuleDstBounds)
}

func TestOperandBounds(t *testing.T) {
	p := prog([]kernel.Instr{
		{Op: kernel.OpAdd, Dst: 2, A: kernel.R(9), B: kernel.R(1)},
	}, 3, 2)
	wantRule(t, Check(p, Source()), RuleOperand)
}

func TestShiftRanges(t *testing.T) {
	cases := []struct {
		name string
		in   kernel.Instr
	}{
		{"shl-32", kernel.Instr{Op: kernel.OpShl, Dst: 2, A: kernel.R(0), B: kernel.Imm(0), Sh: 32}},
		{"rotl-0", kernel.Instr{Op: kernel.OpRotl, Dst: 2, A: kernel.R(0), B: kernel.Imm(0), Sh: 0}},
		{"funnel-40", kernel.Instr{Op: kernel.OpFunnel, Dst: 2, A: kernel.R(0), B: kernel.Imm(0), Sh: 40}},
		{"imad-0", kernel.Instr{Op: kernel.OpIMADHi, Dst: 2, A: kernel.R(0), B: kernel.R(1), Sh: 0}},
		{"prmt-12", kernel.Instr{Op: kernel.OpPerm, Dst: 2, A: kernel.R(0), B: kernel.Imm(0), Sh: 12}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := prog([]kernel.Instr{tc.in}, 3, 2)
			wantRule(t, Check(p, Source()), RuleShiftRange)
		})
	}
}

func TestSpuriousFields(t *testing.T) {
	// ADD carrying a shift amount.
	p := prog([]kernel.Instr{
		{Op: kernel.OpAdd, Dst: 2, A: kernel.R(0), B: kernel.R(1), Sh: 3},
	}, 3, 2)
	wantRule(t, Check(p, Source()), RuleSpuriousSh)

	// Unary SHL with a live (zero-value) register B operand — the exact
	// shape a careless lowering emits.
	p = prog([]kernel.Instr{
		{Op: kernel.OpShl, Dst: 2, A: kernel.R(0), Sh: 3}, // B zero value = R(0)
	}, 3, 2)
	wantRule(t, Check(p, Source()), RuleSpuriousB)
}

func TestExitShape(t *testing.T) {
	p := prog([]kernel.Instr{
		{Op: kernel.OpExitNE, Dst: 2, A: kernel.R(0), B: kernel.R(1)},
	}, 3)
	wantRule(t, Check(p, Source()), RuleExitShape)
}

func TestUndefinedOutput(t *testing.T) {
	p := prog([]kernel.Instr{
		{Op: kernel.OpAdd, Dst: 2, A: kernel.R(0), B: kernel.R(1)},
	}, 4, 3) // r3 never defined
	wantRule(t, Check(p, Source()), RuleOutputUndef)
}

func TestPseudoGate(t *testing.T) {
	p := prog([]kernel.Instr{
		{Op: kernel.OpRotl, Dst: 2, A: kernel.R(0), B: kernel.Imm(0), Sh: 7},
	}, 3, 2)
	wantClean(t, p, Source())
	wantRule(t, Check(p, Machine(arch.CC30)), RulePseudo)
}

func TestTidyGates(t *testing.T) {
	// Nop survives.
	p := prog([]kernel.Instr{
		{Op: kernel.OpNop},
		{Op: kernel.OpAdd, Dst: 2, A: kernel.R(0), B: kernel.R(1)},
	}, 3, 2)
	wantClean(t, p, MidPass())
	wantRule(t, Check(p, Machine(arch.CC1x)), RuleNop)

	// Dead instruction survives.
	p = prog([]kernel.Instr{
		{Op: kernel.OpAdd, Dst: 2, A: kernel.R(0), B: kernel.R(1)},
		{Op: kernel.OpXor, Dst: 3, A: kernel.R(0), B: kernel.R(1)}, // unobserved
	}, 4, 2)
	wantClean(t, p, MidPass())
	wantRule(t, Check(p, Machine(arch.CC1x)), RuleDead)
}

func TestMovLegalOnMachinePrograms(t *testing.T) {
	// A constant output keeps its materializing MOV; that is legal
	// machine state (MOV32I), not a tidiness violation.
	p := prog([]kernel.Instr{
		{Op: kernel.OpMov, Dst: 2, A: kernel.Imm(42), B: kernel.Imm(0)},
	}, 3, 2)
	wantClean(t, p, Machine(arch.CC30))
}

func TestDead(t *testing.T) {
	p := prog([]kernel.Instr{
		{Op: kernel.OpAdd, Dst: 2, A: kernel.R(0), B: kernel.R(1)},   // live: feeds r4
		{Op: kernel.OpXor, Dst: 3, A: kernel.R(0), B: kernel.R(1)},   // dead
		{Op: kernel.OpAnd, Dst: 4, A: kernel.R(2), B: kernel.Imm(1)}, // live: output
	}, 5, 4)
	dead := Dead(p)
	if len(dead) != 1 || dead[0] != 1 {
		t.Fatalf("Dead = %v, want [1]", dead)
	}

	// Transitively dead chains are fully reported.
	p = prog([]kernel.Instr{
		{Op: kernel.OpAdd, Dst: 2, A: kernel.R(0), B: kernel.R(1)}, // feeds only dead r3
		{Op: kernel.OpXor, Dst: 3, A: kernel.R(2), B: kernel.R(1)}, // dead
		{Op: kernel.OpAnd, Dst: 4, A: kernel.R(0), B: kernel.Imm(1)},
	}, 5, 4)
	dead = Dead(p)
	if len(dead) != 2 || dead[0] != 0 || dead[1] != 1 {
		t.Fatalf("Dead = %v, want [0 1]", dead)
	}
}

func TestVerifyErrorNamesEveryViolation(t *testing.T) {
	p := prog([]kernel.Instr{
		{Op: kernel.OpAdd, Dst: 2, A: kernel.R(9), B: kernel.R(1)},
		{Op: kernel.OpXor, Dst: 2, A: kernel.R(0), B: kernel.R(1)},
	}, 3, 2)
	err := Verify(p, Source())
	if err == nil {
		t.Fatal("expected error")
	}
	for _, want := range []string{string(RuleOperand), string(RuleRedefine)} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q missing rule %q", err, want)
		}
	}
}

func TestAnalyzeSerialChain(t *testing.T) {
	// r2 = r0+r1; r3 = r2^1; r4 = r3+2 — a pure chain.
	p := prog([]kernel.Instr{
		{Op: kernel.OpAdd, Dst: 2, A: kernel.R(0), B: kernel.R(1)},
		{Op: kernel.OpXor, Dst: 3, A: kernel.R(2), B: kernel.Imm(1)},
		{Op: kernel.OpAdd, Dst: 4, A: kernel.R(3), B: kernel.Imm(2)},
	}, 5, 4)
	df := Analyze(p)
	if df.Instructions != 3 || df.CriticalPath != 3 {
		t.Fatalf("Instructions=%d CriticalPath=%d, want 3/3", df.Instructions, df.CriticalPath)
	}
	if df.ILP != 1 || df.Pairs != 0 || df.DualIssue != 0 {
		t.Fatalf("ILP=%v Pairs=%d DualIssue=%v, want 1/0/0", df.ILP, df.Pairs, df.DualIssue)
	}
}

func TestAnalyzeIndependentStreams(t *testing.T) {
	// Two interleaved independent chains: every instruction pairs.
	p := &kernel.Program{
		Name: "t2", NumInputs: 4, NumRegs: 8,
		Instrs: []kernel.Instr{
			{Op: kernel.OpAdd, Dst: 4, A: kernel.R(0), B: kernel.R(1)},
			{Op: kernel.OpAdd, Dst: 5, A: kernel.R(2), B: kernel.R(3)},
			{Op: kernel.OpXor, Dst: 6, A: kernel.R(4), B: kernel.Imm(1)},
			{Op: kernel.OpXor, Dst: 7, A: kernel.R(5), B: kernel.Imm(1)},
		},
		Outputs: []int{6, 7},
	}
	df := Analyze(p)
	if df.Instructions != 4 || df.CriticalPath != 2 {
		t.Fatalf("Instructions=%d CriticalPath=%d, want 4/2", df.Instructions, df.CriticalPath)
	}
	if df.ILP != 2 {
		t.Fatalf("ILP=%v, want 2", df.ILP)
	}
	if df.Pairs != 2 || df.DualIssue != 1 {
		t.Fatalf("Pairs=%d DualIssue=%v, want 2/1", df.Pairs, df.DualIssue)
	}
}

func TestAnalyzePairsAreDisjoint(t *testing.T) {
	// Three mutually independent instructions: the middle one pairs with
	// the first, so the third has no partner left — one pair, not two.
	p := &kernel.Program{
		Name: "t3", NumInputs: 3, NumRegs: 6,
		Instrs: []kernel.Instr{
			{Op: kernel.OpAdd, Dst: 3, A: kernel.R(0), B: kernel.Imm(1)},
			{Op: kernel.OpAdd, Dst: 4, A: kernel.R(1), B: kernel.Imm(1)},
			{Op: kernel.OpAdd, Dst: 5, A: kernel.R(2), B: kernel.Imm(1)},
		},
		Outputs: []int{3, 4, 5},
	}
	df := Analyze(p)
	if df.Pairs != 1 {
		t.Fatalf("Pairs=%d, want 1 (greedy disjoint pairing)", df.Pairs)
	}
}

func TestAnalyzeMovTransparent(t *testing.T) {
	// A MOV between chain links neither costs an issue slot nor breaks
	// the dependency chain.
	p := prog([]kernel.Instr{
		{Op: kernel.OpAdd, Dst: 2, A: kernel.R(0), B: kernel.R(1)},
		{Op: kernel.OpMov, Dst: 3, A: kernel.R(2), B: kernel.Imm(0)},
		{Op: kernel.OpAdd, Dst: 4, A: kernel.R(3), B: kernel.Imm(1)},
	}, 5, 4)
	df := Analyze(p)
	if df.Instructions != 2 || df.CriticalPath != 2 {
		t.Fatalf("Instructions=%d CriticalPath=%d, want 2/2", df.Instructions, df.CriticalPath)
	}
	if df.Pairs != 0 {
		t.Fatalf("Pairs=%d, want 0 (copy is transparent, chain dependency remains)", df.Pairs)
	}
}

func TestMalformedShapeBailsOut(t *testing.T) {
	p := &kernel.Program{Name: "bad", NumInputs: 4, NumRegs: 2}
	wantRule(t, Check(p, Source()), RuleShape)
}
