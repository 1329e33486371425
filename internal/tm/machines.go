package tm

// Sample machines used by the Corollary 6 experiments. Each constructor
// returns the machine together with a step-bound function T(n) guaranteed
// to let the machine halt on every input of length n (the explicit
// polynomial clock the tableau construction needs).

// Clocked couples a machine with its polynomial step bound.
type Clocked struct {
	M     *Machine
	Bound func(n int) int
}

// Parity returns a machine accepting inputs with an even number of 1 bits.
// One left-to-right pass: T(n) = n + 2.
func Parity() Clocked {
	// States: 0 = even-so-far, 1 = odd-so-far, 2 = accept, 3 = reject.
	m, err := NewMachine("parity", 4, 0, 2, 3)
	if err != nil {
		panic(err)
	}
	m.MustAdd(0, Zero, Rule{Write: Zero, Move: Right, Next: 0})
	m.MustAdd(0, One, Rule{Write: One, Move: Right, Next: 1})
	m.MustAdd(0, Blank, Rule{Write: Blank, Move: Stay, Next: 2}) // even → accept
	m.MustAdd(1, Zero, Rule{Write: Zero, Move: Right, Next: 1})
	m.MustAdd(1, One, Rule{Write: One, Move: Right, Next: 0})
	m.MustAdd(1, Blank, Rule{Write: Blank, Move: Stay, Next: 3}) // odd → reject
	return Clocked{M: m, Bound: func(n int) int { return n + 2 }}
}

// ContainsOneOne returns a machine accepting inputs containing "11".
// One pass: T(n) = n + 2.
func ContainsOneOne() Clocked {
	// States: 0 = no progress, 1 = saw a 1, 2 = accept, 3 = reject.
	m, err := NewMachine("contains-11", 4, 0, 2, 3)
	if err != nil {
		panic(err)
	}
	m.MustAdd(0, Zero, Rule{Write: Zero, Move: Right, Next: 0})
	m.MustAdd(0, One, Rule{Write: One, Move: Right, Next: 1})
	m.MustAdd(0, Blank, Rule{Write: Blank, Move: Stay, Next: 3})
	m.MustAdd(1, Zero, Rule{Write: Zero, Move: Right, Next: 0})
	m.MustAdd(1, One, Rule{Write: One, Move: Stay, Next: 2}) // "11" found
	m.MustAdd(1, Blank, Rule{Write: Blank, Move: Stay, Next: 3})
	return Clocked{M: m, Bound: func(n int) int { return n + 2 }}
}

// DivisibleByThree returns a machine accepting binary numbers (MSB first)
// divisible by three; the empty input encodes zero and is accepted.
// One pass tracking the value mod 3: T(n) = n + 2.
func DivisibleByThree() Clocked {
	// States 0,1,2 = value mod 3; 3 = accept, 4 = reject.
	m, err := NewMachine("div3", 5, 0, 3, 4)
	if err != nil {
		panic(err)
	}
	for rem := int8(0); rem < 3; rem++ {
		shift0 := (2 * rem) % 3 // appending bit 0: v' = 2v
		shift1 := (2*rem + 1) % 3
		m.MustAdd(rem, Zero, Rule{Write: Zero, Move: Right, Next: shift0})
		m.MustAdd(rem, One, Rule{Write: One, Move: Right, Next: shift1})
		halt := int8(4)
		if rem == 0 {
			halt = 3
		}
		m.MustAdd(rem, Blank, Rule{Write: Blank, Move: Stay, Next: halt})
	}
	return Clocked{M: m, Bound: func(n int) int { return n + 2 }}
}

// Palindrome returns a machine accepting binary palindromes by the classic
// zig-zag: mark the leftmost unmarked bit, run right, compare and mark the
// rightmost unmarked bit, run back. T(n) = (n+2)·(n+3): each round marks
// two cells and walks at most 2(n+2) steps.
func Palindrome() Clocked {
	// States:
	//  0 check   — at leftmost unmarked cell; classify it
	//  1 right0  — running right, remembering 0
	//  2 right1  — running right, remembering 1
	//  3 cmp0    — at rightmost unmarked cell, expecting 0
	//  4 cmp1    — at rightmost unmarked cell, expecting 1
	//  5 back    — running left to the marked prefix
	//  6 accept, 7 reject
	m, err := NewMachine("palindrome", 8, 0, 6, 7)
	if err != nil {
		panic(err)
	}
	// check
	m.MustAdd(0, Blank, Rule{Write: Blank, Move: Stay, Next: 6}) // empty → accept
	m.MustAdd(0, Mark, Rule{Write: Mark, Move: Stay, Next: 6})   // all matched
	m.MustAdd(0, Zero, Rule{Write: Mark, Move: Right, Next: 1})
	m.MustAdd(0, One, Rule{Write: Mark, Move: Right, Next: 2})
	// right0 / right1: run to the right boundary (Mark or Blank).
	for st, cmp := range map[int8]int8{1: 3, 2: 4} {
		m.MustAdd(st, Zero, Rule{Write: Zero, Move: Right, Next: st})
		m.MustAdd(st, One, Rule{Write: One, Move: Right, Next: st})
		m.MustAdd(st, Blank, Rule{Write: Blank, Move: Left, Next: cmp})
		m.MustAdd(st, Mark, Rule{Write: Mark, Move: Left, Next: cmp})
	}
	// cmp0: the cell under the head is the rightmost unmarked cell, or the
	// Mark we just wrote (odd-length centre), which accepts.
	m.MustAdd(3, Zero, Rule{Write: Mark, Move: Left, Next: 5})
	m.MustAdd(3, One, Rule{Write: One, Move: Stay, Next: 7})
	m.MustAdd(3, Mark, Rule{Write: Mark, Move: Stay, Next: 6})
	// cmp1
	m.MustAdd(4, One, Rule{Write: Mark, Move: Left, Next: 5})
	m.MustAdd(4, Zero, Rule{Write: Zero, Move: Stay, Next: 7})
	m.MustAdd(4, Mark, Rule{Write: Mark, Move: Stay, Next: 6})
	// back: run left to the marked prefix, then step right onto the
	// leftmost unmarked cell.
	m.MustAdd(5, Zero, Rule{Write: Zero, Move: Left, Next: 5})
	m.MustAdd(5, One, Rule{Write: One, Move: Left, Next: 5})
	m.MustAdd(5, Mark, Rule{Write: Mark, Move: Right, Next: 0})
	return Clocked{M: m, Bound: func(n int) int { return (n + 2) * (n + 3) }}
}

// ZeroNOneN returns a machine accepting 0^a 1^a (equal runs of zeros then
// ones) — a context-free, non-regular language decided by the same zig-zag
// marking as the palindrome machine: mark the leftmost unmarked symbol
// (must be 0), check and mark the rightmost (must be 1), repeat.
// T(n) = (n+2)·(n+3).
func ZeroNOneN() Clocked {
	// States: 0 check, 1 run-right, 2 compare, 3 run-back, 4 accept, 5 reject.
	m, err := NewMachine("0n1n", 6, 0, 4, 5)
	if err != nil {
		panic(err)
	}
	// check: at the leftmost unmarked cell.
	m.MustAdd(0, Blank, Rule{Write: Blank, Move: Stay, Next: 4}) // empty rest → accept
	m.MustAdd(0, Mark, Rule{Write: Mark, Move: Stay, Next: 4})   // all matched
	m.MustAdd(0, Zero, Rule{Write: Mark, Move: Right, Next: 1})
	m.MustAdd(0, One, Rule{Write: One, Move: Stay, Next: 5}) // leading 1 → reject
	// run-right to the boundary (Mark or Blank), then step left.
	m.MustAdd(1, Zero, Rule{Write: Zero, Move: Right, Next: 1})
	m.MustAdd(1, One, Rule{Write: One, Move: Right, Next: 1})
	m.MustAdd(1, Blank, Rule{Write: Blank, Move: Left, Next: 2})
	m.MustAdd(1, Mark, Rule{Write: Mark, Move: Left, Next: 2})
	// compare: the rightmost unmarked cell must be a 1; a Mark here means
	// the 0 we just marked has no partner.
	m.MustAdd(2, One, Rule{Write: Mark, Move: Left, Next: 3})
	m.MustAdd(2, Zero, Rule{Write: Zero, Move: Stay, Next: 5})
	m.MustAdd(2, Mark, Rule{Write: Mark, Move: Stay, Next: 5})
	// run-back to the marked prefix, then step right onto the leftmost
	// unmarked cell.
	m.MustAdd(3, Zero, Rule{Write: Zero, Move: Left, Next: 3})
	m.MustAdd(3, One, Rule{Write: One, Move: Left, Next: 3})
	m.MustAdd(3, Mark, Rule{Write: Mark, Move: Right, Next: 0})
	return Clocked{M: m, Bound: func(n int) int { return (n + 2) * (n + 3) }}
}

// SampleMachines returns all sample machines with their clocks.
func SampleMachines() []Clocked {
	return []Clocked{Parity(), ContainsOneOne(), DivisibleByThree(), Palindrome(), ZeroNOneN()}
}
