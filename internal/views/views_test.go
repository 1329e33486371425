package views

import (
	"errors"
	"testing"

	"pitract/internal/relation"
)

func sample() *relation.Relation {
	r := relation.New(relation.MustSchema("orders",
		relation.Attr{Name: "amount", Kind: relation.KindInt64},
		relation.Attr{Name: "note", Kind: relation.KindString},
	))
	for _, v := range []int64{5, 17, 23, 42, 77, 91} {
		r.MustAppend(relation.Tuple{relation.Int(v), relation.Str("x")})
	}
	return r
}

func TestMaterializeAndAnswerPoint(t *testing.T) {
	r := sample()
	s, err := Materialize(r, EvenPartition("amount", 0, 99, 4))
	if err != nil {
		t.Fatal(err)
	}
	for c := int64(0); c < 100; c++ {
		want, err := r.ScanPointSelect("amount", relation.Int(c))
		if err != nil {
			t.Fatal(err)
		}
		got, err := s.AnswerPoint("amount", c)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("point %d: views %v, scan %v", c, got, want)
		}
	}
}

func TestUncoveredQueriesFail(t *testing.T) {
	r := sample()
	s, err := Materialize(r, []Def{{Name: "low", Attr: "amount", Lo: 0, Hi: 49}})
	if err != nil {
		t.Fatal(err)
	}
	var nv *ErrNoView
	_, err = s.AnswerPoint("amount", 77)
	if !errors.As(err, &nv) {
		t.Fatalf("want ErrNoView, got %v", err)
	}
	if nv.Error() == "" {
		t.Error("empty error text")
	}
	if _, err := s.AnswerPoint("other", 1); err == nil {
		t.Fatal("unknown attribute answered")
	}
	// Point error text differs from range error text.
	_, perr := s.AnswerPoint("amount", 99)
	if perr == nil || perr.Error() == err.Error() {
		t.Error("point/range error rendering broken")
	}
}

func TestMaterializeValidation(t *testing.T) {
	r := sample()
	if _, err := Materialize(r, []Def{{Name: "v", Attr: "missing", Lo: 0, Hi: 1}}); err == nil {
		t.Error("missing attribute accepted")
	}
	if _, err := Materialize(r, []Def{{Name: "v", Attr: "note", Lo: 0, Hi: 1}}); err == nil {
		t.Error("string attribute accepted")
	}
	if _, err := Materialize(r, []Def{{Name: "v", Attr: "amount", Lo: 5, Hi: 1}}); err == nil {
		t.Error("empty range accepted")
	}
}

func TestViewFootprintSmallerThanBase(t *testing.T) {
	r := relation.Generate(relation.GenConfig{Rows: 10000, Seed: 3, KeyMax: 1000})
	// Views over a narrow hot range only.
	s, err := Materialize(r, []Def{{Name: "hot", Attr: "key", Lo: 0, Hi: 49}})
	if err != nil {
		t.Fatal(err)
	}
	if s.TotalRows() >= r.Len()/2 {
		t.Fatalf("view footprint %d not much smaller than base %d", s.TotalRows(), r.Len())
	}
	if len(s.Views()) != 1 || s.Views()[0].Rows != s.TotalRows() {
		t.Fatal("view accounting inconsistent")
	}
}

func TestEvenPartitionCoversWithoutGaps(t *testing.T) {
	defs := EvenPartition("k", 0, 1000, 7)
	if len(defs) != 7 {
		t.Fatalf("got %d views", len(defs))
	}
	if defs[0].Lo != 0 || defs[6].Hi != 1000 {
		t.Fatalf("partition bounds wrong: %+v", defs)
	}
	for i := 1; i < len(defs); i++ {
		if defs[i].Lo != defs[i-1].Hi+1 {
			t.Fatalf("gap or overlap between views %d and %d", i-1, i)
		}
	}
	if got := EvenPartition("k", 0, 10, 0); len(got) != 1 {
		t.Fatal("k<1 not clamped")
	}
}
