// Package circuit implements Boolean circuits and the Circuit Value Problem
// (CVP), the paper's touchstone P-complete problem (§4(8), §6, §7).
//
// A circuit is a DAG of gates presented in topological order — exactly the
// paper's encoding ᾱ, "a sequence of tuples, one for each node". Gates are
// inputs, constants, or AND/OR/NOT operators over earlier gates. CVP asks
// whether a designated output gate evaluates to true on given inputs.
//
// The package provides evaluation (sequential and layer-parallel with depth
// accounting), validation, a deterministic byte codec, seeded random
// generation, and the reduction of CVP instances to BDS instances used by
// the Theorem 5 completeness experiments.
package circuit

import (
	"fmt"
)

// Kind enumerates gate kinds.
type Kind uint8

const (
	// KindInput reads the gate's Arg-th circuit input.
	KindInput Kind = iota
	// KindConst is a constant; Arg 0 = false, 1 = true.
	KindConst
	// KindAnd is the conjunction of the In gates (fan-in ≥ 1).
	KindAnd
	// KindOr is the disjunction of the In gates (fan-in ≥ 1).
	KindOr
	// KindNot negates its single In gate.
	KindNot
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindInput:
		return "input"
	case KindConst:
		return "const"
	case KindAnd:
		return "and"
	case KindOr:
		return "or"
	case KindNot:
		return "not"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Gate is one node of the circuit DAG.
type Gate struct {
	Kind Kind
	// Arg is the input position (KindInput) or constant value (KindConst).
	Arg int32
	// In lists operand gate indices, all strictly smaller than this gate's
	// own index (topological encoding).
	In []int32
}

// Circuit is a topologically ordered gate list with a designated output.
type Circuit struct {
	NumInputs int
	Gates     []Gate
	Output    int32
}

// Validate checks the structural invariants: operands precede their gate,
// fan-in matches the kind, the output exists, and input/const arguments are
// in range.
func (c *Circuit) Validate() error {
	if c.NumInputs < 0 {
		return fmt.Errorf("circuit: negative input count %d", c.NumInputs)
	}
	if len(c.Gates) == 0 {
		return fmt.Errorf("circuit: no gates")
	}
	if c.Output < 0 || int(c.Output) >= len(c.Gates) {
		return fmt.Errorf("circuit: output %d out of range [0,%d)", c.Output, len(c.Gates))
	}
	for i, g := range c.Gates {
		switch g.Kind {
		case KindInput:
			if g.Arg < 0 || int(g.Arg) >= c.NumInputs {
				return fmt.Errorf("circuit: gate %d reads input %d of %d", i, g.Arg, c.NumInputs)
			}
			if len(g.In) != 0 {
				return fmt.Errorf("circuit: input gate %d has operands", i)
			}
		case KindConst:
			if g.Arg != 0 && g.Arg != 1 {
				return fmt.Errorf("circuit: const gate %d has value %d", i, g.Arg)
			}
			if len(g.In) != 0 {
				return fmt.Errorf("circuit: const gate %d has operands", i)
			}
		case KindAnd, KindOr:
			if len(g.In) < 1 {
				return fmt.Errorf("circuit: %v gate %d has fan-in 0", g.Kind, i)
			}
		case KindNot:
			if len(g.In) != 1 {
				return fmt.Errorf("circuit: not gate %d has fan-in %d", i, len(g.In))
			}
		default:
			return fmt.Errorf("circuit: gate %d has unknown kind %d", i, g.Kind)
		}
		for _, in := range g.In {
			if in < 0 || int(in) >= i {
				return fmt.Errorf("circuit: gate %d references gate %d (not earlier)", i, in)
			}
		}
	}
	return nil
}

// Eval computes the designated output on the given inputs — the direct
// PTIME evaluation of CVP.
func (c *Circuit) Eval(inputs []bool) (bool, error) {
	vals, err := c.EvalAll(inputs)
	if err != nil {
		return false, err
	}
	return vals[c.Output], nil
}

// EvalAll computes every gate value. This is the Corollary-6 preprocessing
// step for the gate-value query class: one PTIME pass stores all values, and
// each later query is an O(1) readout.
func (c *Circuit) EvalAll(inputs []bool) ([]bool, error) {
	if len(inputs) != c.NumInputs {
		return nil, fmt.Errorf("circuit: got %d inputs, want %d", len(inputs), c.NumInputs)
	}
	vals := make([]bool, len(c.Gates))
	for i, g := range c.Gates {
		switch g.Kind {
		case KindInput:
			vals[i] = inputs[g.Arg]
		case KindConst:
			vals[i] = g.Arg == 1
		case KindAnd:
			v := true
			for _, in := range g.In {
				v = v && vals[in]
			}
			vals[i] = v
		case KindOr:
			v := false
			for _, in := range g.In {
				v = v || vals[in]
			}
			vals[i] = v
		case KindNot:
			vals[i] = !vals[g.In[0]]
		default:
			return nil, fmt.Errorf("circuit: gate %d has unknown kind %d", i, g.Kind)
		}
	}
	return vals, nil
}

// Size reports the number of gates.
func (c *Circuit) Size() int { return len(c.Gates) }
