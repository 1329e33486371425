package pitract

// Facade-level tests: the public API must be sufficient to drive the
// paper's main flows without reaching into internal packages (exactly what
// the examples do).

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// cvpInstance builds an encoded random CVP instance with the given gate
// count; shared with the benchmarks.
func cvpInstance(gates int) []byte {
	c := GenerateCircuit(CircuitGenConfig{Inputs: 16, Gates: gates, Seed: int64(gates)})
	return EncodeCVPInstance(&CVPInstance{Circuit: c, Inputs: RandomCircuitInputs(16, 9)})
}

func TestFacadeExample1Flow(t *testing.T) {
	rel := GenerateRelation(RelationGenConfig{Rows: 2000, Seed: 1, KeyMax: 4000})
	d := rel.Encode()
	scheme := PointSelectionScheme()
	prep, err := scheme.Preprocess(d)
	if err != nil {
		t.Fatal(err)
	}
	a, err := scheme.Prepare(prep)
	if err != nil {
		t.Fatal(err)
	}
	lang := SelectionLanguage()
	for c := int64(0); c < 100; c++ {
		got, err := a.Answer(PointQuery(c * 31))
		if err != nil {
			t.Fatal(err)
		}
		want, err := lang.Contains(d, PointQuery(c*31))
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("query %d: %v vs %v", c, got, want)
		}
	}
}

func TestFacadeTheorem5Flow(t *testing.T) {
	cm := ParityMachine()
	scheme := TMSchemeViaBDS(cm)
	for _, bits := range [][]bool{{}, {true}, {true, true}, {true, false, true}} {
		x := EncodeBits(bits)
		prep, err := scheme.Preprocess(x)
		if err != nil {
			t.Fatal(err)
		}
		got, err := scheme.Answer(prep, x)
		if err != nil {
			t.Fatal(err)
		}
		want := cm.M.Run(bits, cm.Bound(len(bits))).Accepted
		if got != want {
			t.Fatalf("input %v: chain %v, simulator %v", bits, got, want)
		}
	}
}

func TestFacadeCVPFlow(t *testing.T) {
	d := cvpInstance(500)
	inst, err := DecodeCVPInstance(d)
	if err != nil {
		t.Fatal(err)
	}
	want, err := inst.Eval()
	if err != nil {
		t.Fatal(err)
	}
	// Fast path.
	fast := CVPGateValueScheme()
	prep, err := fast.Preprocess(d)
	if err != nil {
		t.Fatal(err)
	}
	got, err := fast.Answer(prep, GateQuery(int(inst.Circuit.Output)))
	if err != nil {
		t.Fatal(err)
	}
	// Theorem 9 path.
	slow, err := CVPNoPreprocessScheme().Answer(nil, d)
	if err != nil {
		t.Fatal(err)
	}
	if got != want || slow != want {
		t.Fatalf("fast %v, slow %v, want %v", got, slow, want)
	}
	// Reference reduction to BDS preserves the answer structurally.
	img, err := ReduceCVPToBDS(inst)
	if err != nil {
		t.Fatal(err)
	}
	if (img.U < img.V) != want { // canonical graph visits 3 before 4
		t.Fatal("BDS image does not reflect the answer")
	}
}

func TestFacadeClassify(t *testing.T) {
	fit, err := Classify([]Measurement{
		{N: 100, Cost: 7}, {N: 1000, Cost: 10}, {N: 10000, Cost: 13}, {N: 100000, Cost: 17},
	})
	if err != nil {
		t.Fatal(err)
	}
	if fit.Growth != GrowthPolylog {
		t.Fatalf("log-ish series classified %v", fit.Growth)
	}
}

func TestRunExperimentAndErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := RunExperiment(&buf, "F2", ScaleQuick); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "ΠT⁰Q") {
		t.Fatal("F2 table missing class column content")
	}
	err := RunExperiment(&buf, "nope", ScaleQuick)
	if err == nil {
		t.Fatal("unknown experiment accepted")
	}
	var unknown *UnknownExperimentError
	if !errors.As(err, &unknown) || unknown.ID != "nope" {
		t.Fatalf("error %v is not an *UnknownExperimentError naming the id", err)
	}
}

func TestFacadeViewsAndIncremental(t *testing.T) {
	rel := GenerateRelation(RelationGenConfig{Rows: 1000, Seed: 2, KeyMax: 1000})
	set, err := MaterializeViews(rel, EvenPartition("key", 0, 999, 4))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := set.AnswerPoint("key", 500); err != nil {
		t.Fatal(err)
	}
	g := RandomDirected(100, 150, 1)
	idx, err := NewIncrementalReach(g)
	if err != nil {
		t.Fatal(err)
	}
	if err := idx.InsertEdge(0, 99); err != nil {
		t.Fatal(err)
	}
	if ok, _ := idx.Reach(0, 99); !ok {
		t.Fatal("inserted edge not reachable")
	}
	c, err := CompressGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Reach(0, 99); err != nil {
		t.Fatal(err)
	}
}

// TestFacadeConcurrentEngine drives the concurrent execution engine
// through the public API only: batch answering against one preprocessed
// store, and the parallel PRAM executor substituting for the sequential
// oracle.
func TestFacadeConcurrentEngine(t *testing.T) {
	// Batch answering: worker pool verdicts must equal the loop's.
	g := RandomDirected(128, 512, 11)
	scheme := ReachabilityScheme()
	prep, err := scheme.Preprocess(g.Encode())
	if err != nil {
		t.Fatal(err)
	}
	queries := make([][]byte, 40)
	for i := range queries {
		queries[i] = NodePairQuery(i%128, (i*37)%128)
	}
	loop, err := AnswerBatch(scheme, prep, queries, 1)
	if err != nil {
		t.Fatal(err)
	}
	pooled, err := AnswerBatch(scheme, prep, queries, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range loop {
		if loop[i] != pooled[i] {
			t.Fatalf("query %d: loop %v, pooled %v", i, loop[i], pooled[i])
		}
	}

	// ApplyBatch for function schemes.
	list := make([]int64, 64)
	for i := range list {
		list[i] = int64((i * 31) % 100)
	}
	fs := RMQFuncScheme()
	fprep, err := fs.Preprocess(EncodeList(list))
	if err != nil {
		t.Fatal(err)
	}
	rq := [][]byte{RangeQueryIJ(0, 63), RangeQueryIJ(10, 20), RangeQueryIJ(5, 5)}
	seqOut, err := ApplyBatch(fs, fprep, rq, 1)
	if err != nil {
		t.Fatal(err)
	}
	parOut, err := ApplyBatch(fs, fprep, rq, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range seqOut {
		if string(seqOut[i]) != string(parOut[i]) {
			t.Fatalf("RMQ query %d diverged between loop and pool", i)
		}
	}

	// Parallel PRAM executor: identical closure and cost to the oracle.
	adj := NewPRAMBoolMatrix(20)
	for i := 0; i+1 < 20; i++ {
		adj.Set(i, i+1, true)
	}
	seqM := NewPRAM(0)
	parM := NewPRAM(0, WithPRAMWorkers(4))
	want := PRAMTransitiveClosure(seqM, adj)
	got := PRAMTransitiveClosure(parM, adj)
	if !want.Equal(got) {
		t.Fatal("parallel executor produced a different closure")
	}
	if seqM.Cost() != parM.Cost() {
		t.Fatalf("cost diverged: sequential %v, parallel %v", seqM.Cost(), parM.Cost())
	}
	if ExperimentParallelism() < 1 {
		t.Fatal("ExperimentParallelism must be ≥ 1")
	}
}

// TestFacadeServingFlow drives the serving subsystem through the public
// API alone: register a persisted store, restart it from its snapshot,
// serve it over HTTP, and answer identically on every path.
func TestFacadeServingFlow(t *testing.T) {
	dir := t.TempDir()
	rel := GenerateRelation(RelationGenConfig{Rows: 500, Seed: 3, KeyMax: 1000})
	d := rel.Encode()
	scheme := PointSelectionScheme()

	st, err := NewStoreRegistry(dir).Register("rel", scheme, d)
	if err != nil {
		t.Fatal(err)
	}
	if st.Loaded {
		t.Fatal("first registration claims a snapshot reload")
	}
	st2, err := NewStoreRegistry(dir).Register("rel", scheme, d)
	if err != nil {
		t.Fatal(err)
	}
	pd, _ := st.View()
	if pd2, _ := st2.View(); !st2.Loaded || len(pd2) == 0 || !bytes.Equal(pd, pd2) {
		t.Fatal("a restarted registry did not reload the identical snapshot")
	}
	loaded, err := LoadDataset(dir, "rel", scheme) // the file of id "rel"
	if err != nil {
		t.Fatal(err)
	}
	plain, ok := loaded.(interface{ View() ([]byte, uint64) })
	if !ok || loaded.SchemeName() != scheme.Name() || !loaded.WasLoaded() || loaded.ShardCount() != 1 {
		t.Fatalf("LoadDataset returned a %T of %s", loaded, loaded.SchemeName())
	}
	if lpd, _ := plain.View(); !bytes.Equal(lpd, pd) {
		t.Fatal("LoadDataset disagrees with the registry")
	}

	reg := NewStoreRegistry("")
	srv := NewServer(reg, nil)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	body, _ := json.Marshal(map[string]interface{}{
		"id": "rel", "scheme": scheme.Name(), "data": d,
	})
	resp, err := http.Post(ts.URL+"/v1/datasets", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("register: status %d", resp.StatusCode)
	}
	for c := int64(0); c < 20; c++ {
		q := PointQuery(c * 31)
		want, err := st.Answer(q)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := json.Marshal(map[string]interface{}{"dataset": "rel", "query": q})
		resp, err := http.Post(ts.URL+"/v1/query", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var out struct {
			Answer bool `json:"answer"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if out.Answer != want {
			t.Fatalf("query %d: served %v, store says %v", c, out.Answer, want)
		}
	}
}

// TestFacadeShardingFlow drives sharding through the public API alone:
// build a sharded store, check it against the unsharded scheme, register
// it persistently, and reload it across a registry restart.
func TestFacadeShardingFlow(t *testing.T) {
	g := CommunityGraph(3, 10, 12, 13)
	scheme := ReachabilityScheme()
	d := g.Encode()

	ss, err := BuildShardedStore("g", scheme, 3, d)
	if err != nil {
		t.Fatal(err)
	}
	if ss.ShardCount() != 3 {
		t.Fatalf("ShardCount = %d, want 3", ss.ShardCount())
	}
	prep, err := scheme.Preprocess(d)
	if err != nil {
		t.Fatal(err)
	}
	unsharded, err := scheme.Prepare(prep)
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < g.N(); u += 3 {
		for v := 0; v < g.N(); v += 4 {
			q := NodePairQuery(u, v)
			want, err := unsharded.Answer(q)
			if err != nil {
				t.Fatal(err)
			}
			got, err := ss.Answer(q)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("reach(%d,%d): sharded %v, unsharded %v", u, v, got, want)
			}
		}
	}

	if ShardingForScheme(scheme.Name()) == nil {
		t.Fatal("reachability must have a sharded form")
	}
	if ShardingForScheme("bds/visit-order") != nil {
		t.Fatal("BDS must not have a sharded form")
	}

	dir := t.TempDir()
	reg := NewStoreRegistry(dir)
	if _, err := RegisterSharded(reg, "g", scheme, 2, d); err != nil {
		t.Fatal(err)
	}
	reloaded, err := LoadDataset(dir, "g", scheme)
	if err != nil {
		t.Fatal(err)
	}
	if reloaded.ShardCount() != 2 || !reloaded.WasLoaded() {
		t.Fatalf("reloaded sharded store: %d shards, loaded=%v", reloaded.ShardCount(), reloaded.WasLoaded())
	}
	ok, err := reloaded.Answer(NodePairQuery(0, 1))
	if err != nil {
		t.Fatal(err)
	}
	want, err := scheme.Answer(prep, NodePairQuery(0, 1))
	if err != nil || ok != want {
		t.Fatalf("reloaded answer %v, want %v (err %v)", ok, want, err)
	}
}
