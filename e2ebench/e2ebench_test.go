package main

import (
	"context"
	"reflect"
	"testing"
	"time"

	"repro/internal/eval"
	"repro/internal/parser"
	"repro/internal/storage"
)

func TestPercentileNeedsTenBeyond(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, ok := percentile(xs, 0.5); !ok || v != 500 {
		t.Fatalf("p50 of 1..1000 = %v, %v; want 500, true", v, ok)
	}
	// p99 of 1000 samples is the 990th value with exactly ten beyond it.
	if v, ok := percentile(xs, 0.99); !ok || v != 990 {
		t.Fatalf("p99 of 1..1000 = %v, %v; want 990, true", v, ok)
	}
	if _, ok := percentile(xs[:999], 0.99); ok {
		t.Fatal("p99 of 999 samples has only nine beyond it and must not be reported")
	}
	if _, ok := percentile(xs[:19], 0.5); ok {
		t.Fatal("p50 of 19 samples has nine beyond it and must not be reported")
	}
	if _, ok := percentile(xs[:20], 0.5); !ok {
		t.Fatal("p50 of 20 samples (the 10th value) has ten beyond it")
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Fatal("percentile of no samples reported")
	}
}

// A stall in one operation must count against the operations that were due
// while it lasted: their latency runs from their due time, not from when
// the sender got round to them.
func TestLatencyRunsFromDueTime(t *testing.T) {
	const stall = 60 * time.Millisecond
	key := 0
	next := func() op { key++; return op{kind: opQuery, key: key - 1} }
	do := func(_ context.Context, t0 time.Time, s *sample) {
		if s.op.key == 0 {
			time.Sleep(stall)
		}
		s.end = time.Since(t0)
	}
	ph := runOpenLoop(context.Background(), do, next, 100, 300*time.Millisecond, 1)
	if len(ph.samples) != 30 {
		t.Fatalf("issued %d operations, want 30", len(ph.samples))
	}
	s1 := ph.samples[1] // due at 10ms, sent after the 60ms stall
	if s1.idle {
		t.Fatal("operation 1 was due during the stall but is marked idle")
	}
	if got := s1.latency(); got < stall-15*time.Millisecond {
		t.Fatalf("operation 1 latency %v; want at least the %v it waited behind the stall", got, stall-10*time.Millisecond)
	}
	if got := s1.latency() - (s1.end - s1.start); got < 40*time.Millisecond {
		t.Fatalf("operation 1 waited %v before sending; the wait must be part of its latency", got)
	}
	last := ph.samples[len(ph.samples)-1]
	if !last.idle || last.latency() > 20*time.Millisecond {
		t.Fatalf("last operation idle=%v latency=%v; the backlog should have drained", last.idle, last.latency())
	}
	if !ph.valid() {
		t.Fatal("a drained backlog was reported as growing")
	}
}

func TestBacklogGrowthIsInvalid(t *testing.T) {
	do := func(_ context.Context, t0 time.Time, s *sample) {
		time.Sleep(5 * time.Millisecond) // 200/s capacity against 1000/s offered
		s.end = time.Since(t0)
	}
	ph := runOpenLoop(context.Background(), do, func() op { return op{} }, 1000, 400*time.Millisecond, 1)
	if ph.valid() {
		t.Fatal("a phase offered five times its capacity was reported valid")
	}
}

// The closed-loop phase keeps every connection busy back to back, and its
// throughput is the median of the windows' completion rates, so one slow
// window does not move it.
func TestClosedLoopThroughput(t *testing.T) {
	const dur = 400 * time.Millisecond
	do := func(_ context.Context, t0 time.Time, s *sample) {
		time.Sleep(2 * time.Millisecond)
		s.end = time.Since(t0)
	}
	ph := runClosedLoop(context.Background(), do, func() op { return op{} }, dur, 2)
	for i := range ph.samples {
		if s := &ph.samples[i]; s.due != s.start || s.end < s.start {
			t.Fatalf("sample %d: due %v start %v end %v; a closed-loop operation is due when its sender takes it", i, s.due, s.start, s.end)
		}
	}
	// Two connections at up to 2ms per operation: at most 1000/s.
	if q := ph.throughput(dur, 4); q < 300 || q > 1000 {
		t.Fatalf("throughput %.0f/s; want between 300 and the 1000/s two 2ms connections allow", q)
	}

	stalled := &phase{}
	for i := 0; i < 100; i++ {
		// Windows of 100ms: 30 completions in each of the first three and
		// 10 in the last.
		end := time.Duration(i) * 10 * time.Millisecond / 3
		if i >= 90 {
			end = 300*time.Millisecond + time.Duration(i-90)*10*time.Millisecond
		}
		stalled.samples = append(stalled.samples, sample{end: end})
	}
	if q := stalled.throughput(400*time.Millisecond, 4); q != 300 {
		t.Fatalf("throughput %.0f/s; want the median window's 300/s", q)
	}
}

func TestSeedDeterminism(t *testing.T) {
	for _, w := range workloads {
		a, b := generate(w, 7), generate(w, 7)
		if a.facts != b.facts || a.program != b.program || !reflect.DeepEqual(a.keys, b.keys) {
			t.Fatalf("%s: seed 7 generated different inputs", w.name)
		}
		if c := generate(w, 8); c.facts == a.facts {
			t.Fatalf("%s: seeds 7 and 8 generated the same facts", w.name)
		}
		sa, sb := newStream(w, a, 7, saltMeasured), newStream(w, b, 7, saltMeasured)
		for i := 0; i < 500; i++ {
			oa, ob := sa.next(), sb.next()
			if oa.kind != ob.kind || oa.query != ob.query || oa.limit != ob.limit || (oa.write != nil) != (ob.write != nil) ||
				(oa.write != nil && oa.write.body != ob.write.body) {
				t.Fatalf("%s: operation %d differs between two streams of seed 7", w.name, i)
			}
		}
	}
}

func TestZipfSkew(t *testing.T) {
	w, _ := workloadByName("hot-read")
	ds := generate(w, 3)
	s := newStream(w, ds, 3, saltMeasured)
	counts := make(map[int]int)
	const n = 20000
	for i := 0; i < n; i++ {
		counts[s.nextQuery().key]++
	}
	if len(counts) > len(ds.keys) {
		t.Fatalf("queries used %d keys, the hot set has %d", len(counts), len(ds.keys))
	}
	top := counts[ds.keys[0]]
	if uniform := n / len(ds.keys); top < 3*uniform {
		t.Fatalf("most popular key drew %d of %d queries; Zipf should give well over 3x the uniform %d", top, n, uniform)
	}
}

// The benchmark's reference answers must agree with the engine's plain
// semi-naive evaluation, before and after write batches.
func TestReferenceMatchesSemiNaive(t *testing.T) {
	small := []*workload{
		{name: "tc", tc: true, comps: 4, compMin: 5, compMax: 9, hotKeys: 3, zipfS: 1.2},
		{name: "sg", trees: 3, treeDepth: 3, flatFrac: 0.3},
	}
	for _, w := range small {
		ds := generate(w, 5)
		ref := newReference(ds.g.clone(), w.tc)
		facts := ds.facts
		s := newStream(w, ds, 5, saltProbe)
		for round := 0; round < 3; round++ {
			compareWithSemiNaive(t, w, ds.program, facts, ref)
			b := s.nextWrite().write
			ref.apply(b)
			facts += b.body
		}
	}
}

func compareWithSemiNaive(t *testing.T, w *workload, program, facts string, ref *reference) {
	t.Helper()
	prog, _, err := parser.ParseProgram(program)
	if err != nil {
		t.Fatal(err)
	}
	db := storage.NewDatabase()
	if err := db.LoadFacts(facts); err != nil {
		t.Fatal(err)
	}
	out, _, err := eval.SemiNaive(prog, db)
	if err != nil {
		t.Fatal(err)
	}
	pred := "sg"
	if w.tc {
		pred = "p"
	}
	got := make(map[int]map[int]bool)
	if rel := out.Rel(pred); rel != nil {
		rel.Each(func(tu storage.Tuple) bool {
			x, _ := ref.g.id(out.Syms.Name(tu[0]))
			y, _ := ref.g.id(out.Syms.Name(tu[1]))
			if got[x] == nil {
				got[x] = make(map[int]bool)
			}
			got[x][y] = true
			return true
		})
	}
	for v := 0; v < ref.g.base+ref.g.added; v++ {
		want := ref.bound(v).set
		if len(want) != len(got[v]) {
			t.Fatalf("%s: node %s has %d reference answers, semi-naive derives %d", w.name, ref.g.name(v), len(want), len(got[v]))
		}
		for y := range want {
			if !got[v][y] {
				t.Fatalf("%s: reference answer (%s, %s) not derived by semi-naive", w.name, ref.g.name(v), ref.g.name(y))
			}
		}
	}
}

func TestRowHashIsOrderIndependent(t *testing.T) {
	a := [][]string{{"n1", "n2"}, {"n1", "n3"}, {"n1", "w0"}}
	b := [][]string{{"n1", "w0"}, {"n1", "n2"}, {"n1", "n3"}}
	if rowHash(a) != rowHash(b) {
		t.Fatal("row hash depends on row order")
	}
	if rowHash(a) == rowHash(a[:2]) {
		t.Fatal("row hash ignores a missing row")
	}
	if rowHash([][]string{{"n1", "n23"}}) == rowHash([][]string{{"n12", "n3"}}) {
		t.Fatal("row hash ignores column boundaries")
	}
}

func TestFirstRowDetection(t *testing.T) {
	if firstRowDone([]byte(`{"query":"?- p(n1, Y).","answers":[["n1","n`), opQuery) {
		t.Fatal("first row reported before it was complete")
	}
	if !firstRowDone([]byte(`{"query":"?- p(n1, Y).","answers":[["n1","n2"],["n1"`), opQuery) {
		t.Fatal("complete first row not detected")
	}
	if firstRowDone([]byte(`{"answers":[],"count":0}`), opQuery) {
		t.Fatal("an empty answer has no first row")
	}
	if !firstRowDone([]byte("{\"cached\":false}\n{\"row\":[\"n1\",\"n2\"]}\n"), opStream) {
		t.Fatal("first NDJSON row not detected")
	}
}
