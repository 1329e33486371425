// Package tm implements single-tape deterministic Turing machines with
// explicit polynomial clocks, plus the Cook–Levin/Ladner compilation of a
// clocked machine into a Boolean circuit.
//
// This is the machinery behind the paper's Corollary 6 ("all problems in P
// can be made Π-tractable"): an arbitrary member of P is represented by a
// DTM with a polynomial step bound; the tableau construction compiles its
// T-step computation into a circuit whose value equals acceptance; and the
// circuit package's reduction carries the instance onward to BDS, the
// ΠTP-complete problem. Every link of that chain is executable and tested.
//
// Tape convention: the tape is one-way infinite to the right; a left move
// in cell 0 leaves the head in cell 0. The simulator and the compiled
// circuit implement the identical convention, which the equivalence tests
// pin down.
package tm

import "fmt"

// Move is a head movement.
type Move int8

const (
	// Left moves the head one cell left (staying put in cell 0).
	Left Move = iota
	// Right moves the head one cell right.
	Right
	// Stay keeps the head in place.
	Stay
)

// Symbol indices for the fixed tape alphabet. Machines may use a subset.
const (
	// Blank is the blank tape symbol.
	Blank = 0
	// Zero is the input bit 0.
	Zero = 1
	// One is the input bit 1.
	One = 2
	// Mark is a scratch symbol for marking cells.
	Mark = 3
	// NumSymbols is the tape alphabet size.
	NumSymbols = 4
)

// Rule is the effect of one transition: write a symbol, move, enter a state.
type Rule struct {
	Write int8
	Move  Move
	Next  int8
}

// Machine is a deterministic single-tape Turing machine over the fixed
// four-symbol alphabet, with binary inputs written in cells 0..n-1.
type Machine struct {
	Name   string
	States int
	Start  int8
	Accept int8
	Reject int8
	// delta[state][symbol]; accept/reject rows must self-loop (absorb) so
	// the tableau can run a fixed number of steps.
	delta [][NumSymbols]Rule
}

// NewMachine allocates a machine shell with states all-absorbing into
// reject; Add installs real transitions.
func NewMachine(name string, states int, start, accept, reject int8) (*Machine, error) {
	if states < 2 || int(start) >= states || int(accept) >= states || int(reject) >= states {
		return nil, fmt.Errorf("tm: bad state configuration (states=%d start=%d accept=%d reject=%d)",
			states, start, accept, reject)
	}
	if accept == reject {
		return nil, fmt.Errorf("tm: accept and reject must differ")
	}
	m := &Machine{Name: name, States: states, Start: start, Accept: accept, Reject: reject,
		delta: make([][NumSymbols]Rule, states)}
	for q := 0; q < states; q++ {
		for s := 0; s < NumSymbols; s++ {
			// Default: halt rejecting; accept/reject absorb.
			next := reject
			if int8(q) == accept {
				next = accept
			}
			m.delta[q][s] = Rule{Write: int8(s), Move: Stay, Next: next}
		}
	}
	return m, nil
}

// Add installs the transition δ(state, symbol) = rule.
func (m *Machine) Add(state int8, symbol int8, rule Rule) error {
	if int(state) >= m.States || state == m.Accept || state == m.Reject {
		return fmt.Errorf("tm: cannot add transition from state %d", state)
	}
	if symbol < 0 || symbol >= NumSymbols {
		return fmt.Errorf("tm: symbol %d out of range", symbol)
	}
	if int(rule.Next) >= m.States || rule.Write < 0 || rule.Write >= NumSymbols {
		return fmt.Errorf("tm: bad rule %+v", rule)
	}
	m.delta[state][symbol] = rule
	return nil
}

// MustAdd is Add that panics, for the static sample machines.
func (m *Machine) MustAdd(state int8, symbol int8, rule Rule) {
	if err := m.Add(state, symbol, rule); err != nil {
		panic(err)
	}
}

// Result reports a simulation outcome.
type Result struct {
	Accepted bool
	Halted   bool // reached accept or reject within the step budget
	Steps    int  // steps executed until halting (or the budget)
}

// Run simulates the machine on a binary input for at most maxSteps steps.
func (m *Machine) Run(input []bool, maxSteps int) Result {
	tape := make([]int8, len(input)+maxSteps+2)
	for i, b := range input {
		if b {
			tape[i] = One
		} else {
			tape[i] = Zero
		}
	}
	state := m.Start
	head := 0
	for step := 0; step < maxSteps; step++ {
		if state == m.Accept || state == m.Reject {
			return Result{Accepted: state == m.Accept, Halted: true, Steps: step}
		}
		r := m.delta[state][tape[head]]
		tape[head] = r.Write
		switch r.Move {
		case Left:
			if head > 0 {
				head--
			}
		case Right:
			head++
		}
		state = r.Next
	}
	return Result{Accepted: state == m.Accept, Halted: state == m.Accept || state == m.Reject, Steps: maxSteps}
}
