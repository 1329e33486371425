package circuit

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"pitract/internal/bds"
)

// handBuilt returns (x0 AND x1) OR NOT x2.
func handBuilt() *Circuit {
	return &Circuit{
		NumInputs: 3,
		Gates: []Gate{
			{Kind: KindInput, Arg: 0},
			{Kind: KindInput, Arg: 1},
			{Kind: KindInput, Arg: 2},
			{Kind: KindAnd, In: []int32{0, 1}},
			{Kind: KindNot, In: []int32{2}},
			{Kind: KindOr, In: []int32{3, 4}},
		},
		Output: 5,
	}
}

func TestEvalHandBuilt(t *testing.T) {
	c := handBuilt()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	for a := 0; a < 8; a++ {
		in := []bool{a&1 != 0, a&2 != 0, a&4 != 0}
		want := (in[0] && in[1]) || !in[2]
		got, err := c.Eval(in)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("inputs %v: got %v want %v", in, got, want)
		}
	}
}

func TestEvalAllExposesEveryGate(t *testing.T) {
	c := handBuilt()
	vals, err := c.EvalAll([]bool{true, true, true})
	if err != nil {
		t.Fatal(err)
	}
	want := []bool{true, true, true, true, false, true}
	if !reflect.DeepEqual(vals, want) {
		t.Fatalf("EvalAll = %v, want %v", vals, want)
	}
}

func TestEvalRejectsWrongArity(t *testing.T) {
	c := handBuilt()
	if _, err := c.Eval([]bool{true}); err == nil {
		t.Fatal("wrong arity accepted")
	}
}

func TestValidateRejectsMalformed(t *testing.T) {
	cases := map[string]*Circuit{
		"no gates":       {NumInputs: 1},
		"bad output":     {NumInputs: 1, Gates: []Gate{{Kind: KindInput}}, Output: 5},
		"forward ref":    {NumInputs: 1, Gates: []Gate{{Kind: KindNot, In: []int32{0}}}, Output: 0},
		"input arg":      {NumInputs: 1, Gates: []Gate{{Kind: KindInput, Arg: 3}}, Output: 0},
		"const arg":      {NumInputs: 0, Gates: []Gate{{Kind: KindConst, Arg: 7}}, Output: 0},
		"not fan-in":     {NumInputs: 1, Gates: []Gate{{Kind: KindInput}, {Kind: KindNot, In: []int32{0, 0}}}, Output: 1},
		"and fan-in 0":   {NumInputs: 1, Gates: []Gate{{Kind: KindInput}, {Kind: KindAnd}}, Output: 1},
		"input with ins": {NumInputs: 1, Gates: []Gate{{Kind: KindInput}, {Kind: KindInput, In: []int32{0}}}, Output: 1},
		"unknown kind":   {NumInputs: 1, Gates: []Gate{{Kind: Kind(99)}}, Output: 0},
		"neg inputs":     {NumInputs: -1, Gates: []Gate{{Kind: KindConst}}, Output: 0},
	}
	for name, c := range cases {
		if err := c.Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		c := Generate(GenConfig{Inputs: 1 + int(seed)%5, Gates: 30, Seed: seed})
		if err := c.Validate(); err != nil {
			t.Fatalf("generated circuit invalid: %v", err)
		}
		back, err := Decode(c.Encode())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(c, back) {
			t.Fatalf("seed %d: round trip mismatch", seed)
		}
	}
}

func TestDecodeRejectsCorrupt(t *testing.T) {
	c := handBuilt()
	enc := c.Encode()
	for i, bad := range [][]byte{nil, enc[:3], append(append([]byte{}, enc...), 1)} {
		if _, err := Decode(bad); err == nil {
			t.Errorf("case %d decoded", i)
		}
	}
	// Structurally invalid circuits must fail Decode's validation.
	invalid := (&Circuit{NumInputs: 1, Gates: []Gate{{Kind: KindInput, Arg: 9}}, Output: 0}).Encode()
	if _, err := Decode(invalid); err == nil {
		t.Error("invalid circuit decoded")
	}
}

func TestInstanceEncodeDecodeRoundTrip(t *testing.T) {
	f := func(seed int64, nIn8 uint8) bool {
		nIn := 1 + int(nIn8)%6
		in := &Instance{
			Circuit: Generate(GenConfig{Inputs: nIn, Gates: 20, Seed: seed}),
			Inputs:  RandomInputs(nIn, seed+1),
		}
		back, err := DecodeInstance(EncodeInstance(in))
		if err != nil {
			return false
		}
		a, err1 := in.Eval()
		b, err2 := back.Eval()
		return err1 == nil && err2 == nil && a == b && reflect.DeepEqual(in.Inputs, back.Inputs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeInstanceRejectsCorrupt(t *testing.T) {
	in := &Instance{Circuit: handBuilt(), Inputs: []bool{true, false, true}}
	enc := EncodeInstance(in)
	for i, bad := range [][]byte{nil, enc[:2], enc[:len(enc)-1]} {
		if _, err := DecodeInstance(bad); err == nil {
			t.Errorf("case %d decoded", i)
		}
	}
	// Input byte out of {0,1}.
	badByte := append([]byte{}, enc...)
	badByte[1] = 9
	if _, err := DecodeInstance(badByte); err == nil {
		t.Error("bad input byte decoded")
	}
	// Arity mismatch between carried inputs and circuit.
	mismatch := EncodeInstance(&Instance{Circuit: handBuilt(), Inputs: []bool{true, false, true}})
	// Truncate one input by rewriting the count prefix (3 -> 2 shifts the
	// whole layout, so rebuild instead).
	short := append([]byte{2, 1, 0}, handBuilt().Encode()...)
	if _, err := DecodeInstance(short); err == nil {
		t.Error("arity mismatch decoded")
	}
	_ = mismatch
}

func TestGenerateDeterministicAndShape(t *testing.T) {
	a := Generate(GenConfig{Inputs: 4, Gates: 50, Seed: 7})
	b := Generate(GenConfig{Inputs: 4, Gates: 50, Seed: 7})
	if !reflect.DeepEqual(a, b) {
		t.Fatal("generation not deterministic")
	}
	if a.Size() != 54 {
		t.Fatalf("Size = %d, want 54", a.Size())
	}
	// Degenerate configs are clamped, not rejected.
	c := Generate(GenConfig{})
	if err := c.Validate(); err != nil {
		t.Fatalf("clamped config invalid: %v", err)
	}
}

func TestReduceInstanceToBDSPreservesAnswer(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		nIn := 1 + rng.Intn(5)
		in := &Instance{
			Circuit: Generate(GenConfig{Inputs: nIn, Gates: 1 + rng.Intn(40), Seed: int64(trial)}),
			Inputs:  RandomInputs(nIn, int64(trial*31)),
		}
		want, err := in.Eval()
		if err != nil {
			t.Fatal(err)
		}
		inst, err := ReduceInstanceToBDS(in)
		if err != nil {
			t.Fatal(err)
		}
		// Answer the BDS instance by actually running the search.
		got, err := bds.AnswerNaive(inst.G, inst.U, inst.V)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("trial %d: circuit value %v, BDS image answers %v", trial, want, got)
		}
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{
		KindInput: "input", KindConst: "const", KindAnd: "and",
		KindOr: "or", KindNot: "not", Kind(42): "Kind(42)",
	} {
		if k.String() != want {
			t.Errorf("Kind(%d).String() = %q", k, k.String())
		}
	}
}
