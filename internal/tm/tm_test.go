package tm

import (
	"math/rand"
	"testing"
	"testing/quick"

	"pitract/internal/circuit"
)

// allInputs enumerates every binary input of length n.
func allInputs(n int) [][]bool {
	out := make([][]bool, 0, 1<<n)
	for mask := 0; mask < 1<<n; mask++ {
		in := make([]bool, n)
		for i := range in {
			in[i] = mask&(1<<i) != 0
		}
		out = append(out, in)
	}
	return out
}

// The reference predicates the sample machines are held to, in plain Go.

// parityRef reports whether the input has an even number of 1 bits.
func parityRef(in []bool) bool {
	ones := 0
	for _, b := range in {
		if b {
			ones++
		}
	}
	return ones%2 == 0
}

// containsOneOneRef reports whether the input contains two adjacent 1 bits.
func containsOneOneRef(in []bool) bool {
	for i := 0; i+1 < len(in); i++ {
		if in[i] && in[i+1] {
			return true
		}
	}
	return false
}

// divisibleByThreeRef reports whether the input, read MSB-first, encodes a
// multiple of three (empty input encodes zero).
func divisibleByThreeRef(in []bool) bool {
	v := 0
	for _, b := range in {
		v = (v * 2) % 3
		if b {
			v = (v + 1) % 3
		}
	}
	return v == 0
}

// palindromeRef reports whether the input is a palindrome.
func palindromeRef(in []bool) bool {
	for i, j := 0, len(in)-1; i < j; i, j = i+1, j-1 {
		if in[i] != in[j] {
			return false
		}
	}
	return true
}

// zeroNOneNRef reports whether the input is 0^a 1^a.
func zeroNOneNRef(in []bool) bool {
	n := len(in)
	if n%2 != 0 {
		return false
	}
	for i := 0; i < n/2; i++ {
		if in[i] {
			return false
		}
	}
	for i := n / 2; i < n; i++ {
		if !in[i] {
			return false
		}
	}
	return true
}

func refFor(name string) func([]bool) bool {
	switch name {
	case "parity":
		return parityRef
	case "contains-11":
		return containsOneOneRef
	case "div3":
		return divisibleByThreeRef
	case "palindrome":
		return palindromeRef
	case "0n1n":
		return zeroNOneNRef
	default:
		return nil
	}
}

func TestMachinesMatchReferencesExhaustively(t *testing.T) {
	for _, cm := range SampleMachines() {
		ref := refFor(cm.M.Name)
		if ref == nil {
			t.Fatalf("no reference for %s", cm.M.Name)
		}
		for n := 0; n <= 9; n++ {
			bound := cm.Bound(n)
			for _, in := range allInputs(n) {
				res := cm.M.Run(in, bound)
				if !res.Halted {
					t.Fatalf("%s: did not halt on %v within its own bound %d", cm.M.Name, in, bound)
				}
				if res.Accepted != ref(in) {
					t.Fatalf("%s: input %v accepted=%v, reference=%v", cm.M.Name, in, res.Accepted, ref(in))
				}
			}
		}
	}
}

func TestRunRespectsStepBudget(t *testing.T) {
	cm := Palindrome()
	in := make([]bool, 12)
	res := cm.M.Run(in, 3) // far too few steps
	if res.Halted {
		t.Fatal("palindrome halted in 3 steps on a 12-bit input")
	}
	if res.Steps != 3 {
		t.Fatalf("Steps = %d, want 3", res.Steps)
	}
}

func TestNewMachineValidation(t *testing.T) {
	if _, err := NewMachine("x", 1, 0, 0, 0); err == nil {
		t.Error("degenerate machine accepted")
	}
	if _, err := NewMachine("x", 3, 0, 2, 2); err == nil {
		t.Error("accept == reject accepted")
	}
	if _, err := NewMachine("x", 3, 5, 1, 2); err == nil {
		t.Error("start out of range accepted")
	}
}

func TestAddValidation(t *testing.T) {
	m, err := NewMachine("x", 4, 0, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Add(2, Zero, Rule{}); err == nil {
		t.Error("transition from accept state accepted")
	}
	if err := m.Add(0, 9, Rule{}); err == nil {
		t.Error("bad symbol accepted")
	}
	if err := m.Add(0, Zero, Rule{Next: 9}); err == nil {
		t.Error("bad next state accepted")
	}
	if err := m.Add(0, Zero, Rule{Write: 9}); err == nil {
		t.Error("bad write symbol accepted")
	}
}

func TestLeftMoveAtCellZeroStays(t *testing.T) {
	// A machine that moves left forever from cell 0 must stay put; verify
	// by watching it read the same first symbol repeatedly.
	m, err := NewMachine("left", 4, 0, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	// On One in state 0: write Zero, move left, stay in state 0.
	// On Zero: accept. So from input [1,...]: step 1 writes 0 and "moves
	// left" (stays); step 2 reads the 0 it wrote → accept.
	m.MustAdd(0, One, Rule{Write: Zero, Move: Left, Next: 0})
	m.MustAdd(0, Zero, Rule{Write: Zero, Move: Stay, Next: 2})
	res := m.Run([]bool{true, true}, 5)
	if !res.Halted || !res.Accepted || res.Steps != 2 {
		t.Fatalf("boundary semantics broken: %+v", res)
	}
}

func TestCompiledCircuitsMatchSimulator(t *testing.T) {
	for _, cm := range SampleMachines() {
		maxN := 7
		if cm.M.Name == "palindrome" || cm.M.Name == "0n1n" {
			maxN = 5 // quadratic tableau; keep the circuit small
		}
		for n := 0; n <= maxN; n++ {
			circ, err := cm.Compile(n)
			if err != nil {
				t.Fatalf("%s n=%d: %v", cm.M.Name, n, err)
			}
			bound := cm.Bound(n)
			for _, in := range allInputs(n) {
				want := cm.M.Run(in, bound).Accepted
				got, err := circ.Eval(in)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("%s n=%d input %v: circuit %v, simulator %v", cm.M.Name, n, in, got, want)
				}
			}
		}
	}
}

func TestCompiledCircuitsMatchReferenceQuick(t *testing.T) {
	// Larger inputs, randomized: the compiled parity circuit must track
	// the plain-Go reference.
	cm := Parity()
	circ, err := cm.Compile(16)
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		in := make([]bool, 16)
		for i := range in {
			in[i] = rng.Intn(2) == 1
		}
		got, err := circ.Eval(in)
		return err == nil && got == parityRef(in)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestCompileRejectsNegativeLength(t *testing.T) {
	if _, err := Parity().Compile(-1); err == nil {
		t.Fatal("negative length accepted")
	}
}

// depth is c's longest input-to-output path: the rounds a layer-parallel
// evaluator needs.
func depth(c *circuit.Circuit) int {
	d := make([]int, len(c.Gates))
	deepest := 0
	for i, g := range c.Gates {
		for _, in := range g.In {
			d[i] = max(d[i], d[in]+1)
		}
		deepest = max(deepest, d[i])
	}
	return deepest
}

func TestCompiledDepthIsPolynomialNotPolylog(t *testing.T) {
	// The tableau has depth Θ(T): the concrete reason CVP resists NC
	// evaluation (§7). Check depth grows linearly with the clock.
	cm := Parity()
	c4, _ := cm.Compile(4)
	c16, _ := cm.Compile(16)
	if depth(c16) <= depth(c4) {
		t.Fatalf("depth did not grow with input: %d vs %d", depth(c4), depth(c16))
	}
	if depth(c16) < cm.Bound(16) {
		t.Fatalf("depth %d below clock %d; tableau layers missing", depth(c16), cm.Bound(16))
	}
}

func TestOptimizedTableauEquivalentAndSmaller(t *testing.T) {
	// The tableaux are dominated by constant wires; circuit.Optimize must
	// shrink them massively without changing acceptance.
	cm := Parity()
	c, err := cm.Compile(6)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := circuit.Optimize(c)
	if err != nil {
		t.Fatal(err)
	}
	if opt.Size()*2 > c.Size() {
		t.Fatalf("tableau only shrank %d → %d; expected >2x", c.Size(), opt.Size())
	}
	for _, in := range allInputs(6) {
		want, _ := c.Eval(in)
		got, _ := opt.Eval(in)
		if got != want {
			t.Fatalf("optimized tableau disagrees on %v", in)
		}
	}
	t.Logf("parity tableau: %d → %d gates (%.1fx)", c.Size(), opt.Size(),
		float64(c.Size())/float64(opt.Size()))
}
