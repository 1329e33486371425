// Quickstart: the paper's Example 1 in twenty lines — make point-selection
// queries tractable on a big relation by preprocessing.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"time"

	"pitract"
)

func main() {
	// A synthetic relation D: one million rows of (key, payload).
	rel := pitract.GenerateRelation(pitract.RelationGenConfig{Rows: 1_000_000, Seed: 42})
	d := rel.Encode()
	fmt.Printf("database: %d rows, %d bytes encoded\n", rel.Len(), len(d))

	// The Π-tractable scheme for the query class Q1 (Definition 1):
	// preprocess once in PTIME...
	scheme := pitract.PointSelectionScheme()
	start := time.Now()
	prep, err := scheme.Preprocess(d)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("preprocessed in %v (%d bytes)\n", time.Since(start), len(prep))

	// ...then prepare Π(D) once and answer any number of queries in
	// O(log |D|).
	a, err := scheme.Prepare(prep)
	if err != nil {
		log.Fatal(err)
	}
	start = time.Now()
	queries := 10_000
	hits := 0
	for c := int64(0); c < int64(queries); c++ {
		ok, err := a.Answer(pitract.PointQuery(c * 17))
		if err != nil {
			log.Fatal(err)
		}
		if ok {
			hits++
		}
	}
	perQuery := time.Since(start) / time.Duration(queries)
	fmt.Printf("%d queries, %d hits, %v per query\n", queries, hits, perQuery)

	// Contrast with the no-preprocessing baseline on a few one-shot queries.
	scan := pitract.PointSelectionScanScheme()
	start = time.Now()
	for c := int64(0); c < 3; c++ {
		if _, err := scan.Answer(d, pitract.PointQuery(c*17)); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("baseline scan: %v per query — the Example 1 gap\n", time.Since(start)/3)
}
