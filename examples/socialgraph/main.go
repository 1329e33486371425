// Social-graph reachability: the paper's Example 3 and §4(5) on a
// community-structured directed graph — precompute a closure for O(1)
// answers, then compress the graph query-preservingly and answer from the
// compressed structure instead.
//
//	go run ./examples/socialgraph
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	"pitract"
)

func main() {
	// A "social network": 40 dense communities of 50 members with sparse
	// cross-community follows.
	g := pitract.CommunityGraph(40, 50, 120, 7)
	fmt.Printf("graph: %d vertices, %d edges\n", g.N(), g.M())

	// Π-tractable reachability (Example 3): precompute the closure matrix.
	scheme := pitract.ReachabilityScheme()
	d := g.Encode()
	start := time.Now()
	prep, err := scheme.Preprocess(d)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("closure matrix built in %v (%d bytes)\n", time.Since(start), len(prep))
	closure, err := scheme.Prepare(prep) // framed and validated once
	if err != nil {
		log.Fatal(err)
	}

	rng := rand.New(rand.NewSource(1))
	start = time.Now()
	reachable := 0
	const queries = 100_000
	for i := 0; i < queries; i++ {
		ok, err := closure.Answer(pitract.NodePairQuery(rng.Intn(g.N()), rng.Intn(g.N())))
		if err != nil {
			log.Fatal(err)
		}
		if ok {
			reachable++
		}
	}
	fmt.Printf("%d queries in %v (%.0f%% reachable)\n",
		queries, time.Since(start), 100*float64(reachable)/queries)

	// §4(5): query-preserving compression — communities collapse.
	start = time.Now()
	c, err := pitract.CompressGraph(g)
	if err != nil {
		log.Fatal(err)
	}
	vr, er := c.Ratio(g)
	fmt.Printf("compressed in %v: %d → %d vertices (ratio %.3f), %d → %d edges (ratio %.3f)\n",
		time.Since(start), g.N(), c.Dc.N(), vr, g.M(), c.Dc.M(), er)

	// Same answers, smaller structure.
	rng = rand.New(rand.NewSource(1))
	mismatches := 0
	for i := 0; i < 10_000; i++ {
		u, v := rng.Intn(g.N()), rng.Intn(g.N())
		a, err := c.Reach(u, v)
		if err != nil {
			log.Fatal(err)
		}
		b, err := closure.Answer(pitract.NodePairQuery(u, v))
		if err != nil {
			log.Fatal(err)
		}
		if a != b {
			mismatches++
		}
	}
	fmt.Printf("compressed vs closure answers: %d mismatches on 10,000 queries\n", mismatches)
}
