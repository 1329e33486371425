// The completeness chain, end to end: take a PTIME language (binary
// palindromes, decided by a Turing machine), compile its decision procedure
// into a Cook–Levin circuit, reduce to BDS — the ΠTP-complete problem — and
// decide the language through the transported Π-scheme (Theorem 5 and
// Corollary 6 of the paper, running).
//
//	go run ./examples/circuits
package main

import (
	"fmt"
	"log"

	"pitract"
)

func main() {
	cm := pitract.PalindromeMachine()
	fmt.Printf("machine: %q with clock T(n) = (n+2)(n+3)\n", cm.M.Name)

	// Corollary 6 in one call: a Π-scheme for L(machine) obtained by
	// transporting BDS's scheme along the L(M) → CVP → BDS reduction.
	scheme := pitract.TMSchemeViaBDS(cm)
	fmt.Printf("scheme: %s\n", scheme.SchemeName)

	inputs := [][]bool{
		{},
		{true},
		{true, false, true},
		{true, false, false},
		{false, true, true, false},
		{false, true, true, true},
	}
	for _, in := range inputs {
		x := pitract.EncodeBits(in)
		// The chain underneath: compile → reduce → preprocess the BDS
		// image → answer with two position reads.
		prep, err := scheme.Preprocess(x)
		if err != nil {
			log.Fatal(err)
		}
		a, err := scheme.Prepare(prep)
		if err != nil {
			log.Fatal(err)
		}
		got, err := a.Answer(x)
		if err != nil {
			log.Fatal(err)
		}
		want := cm.M.Run(in, cm.Bound(len(in))).Accepted
		status := "✓"
		if got != want {
			status = "✗ DISAGREES"
		}
		fmt.Printf("  input %v → chain says %5v, simulator says %5v %s\n", bits(in), got, want, status)
		if got != want {
			log.Fatal("chain broken")
		}
	}

	// Peek inside: the reduction artifacts for one input.
	red := pitract.TMToBDSReduction(cm)
	x := pitract.EncodeBits([]bool{true, false, true})
	gBytes, err := red.Map.Alpha(x)
	if err != nil {
		log.Fatal(err)
	}
	q, err := red.Map.Beta(x)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nreduction image for 101: BDS graph %d bytes, query %v (α, β per Definition 4)\n",
		len(gBytes), q)
	fmt.Println("every PTIME query class admits such a chain — Corollary 6")
}

func bits(in []bool) string {
	if len(in) == 0 {
		return "ε"
	}
	s := ""
	for _, b := range in {
		if b {
			s += "1"
		} else {
			s += "0"
		}
	}
	return s
}
