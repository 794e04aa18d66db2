package eval

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/ast"
	"repro/internal/obs"
	"repro/internal/parser"
	"repro/internal/storage"
)

// The exit-view suite: when the TC system's only exit rule is the identity
// copy p(X, Y) :- e(X, Y) and the database is a snapshot, the kernels read
// the snapshot's frozen e as E instead of materializing a private copy.
// Every answer, streamed answer and limit-k prefix must equal what the
// materialized exit gives; every other exit shape must not take the view
// and must still answer correctly.

// tcOrientations are the two recursive rules of the TC kernel over edge a.
var tcOrientations = []string{
	"p(X, Y) :- a(X, Z), p(Z, Y).",
	"p(X, Y) :- p(X, Z), a(Z, Y).",
}

// tcAdornments covers ff, bf, fb and bb (twice: a hit-or-miss pair and a
// reflexive probe).
var tcAdornments = []string{
	"?- p(X, Y).", "?- p(n1, Y).", "?- p(X, n2).", "?- p(n1, n2).", "?- p(n0, n0).",
}

func mustQuery(t testing.TB, qs string) ast.Query {
	t.Helper()
	q, err := parser.ParseQuery(qs)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// streamRows drains a stream in emission order (unsorted).
func streamRows(t testing.TB, it Iterator) []string {
	t.Helper()
	defer it.Close()
	var rows []string
	for it.Next() {
		rows = append(rows, fmt.Sprint(it.Tuple()))
	}
	if err := it.Err(); err != nil {
		t.Fatalf("stream error: %v", err)
	}
	return rows
}

// TestTCExitViewMatchesMaterialized compares, for both orientations and
// every adornment, the kernels over a snapshot (exit view) with the same
// kernels over an unfrozen copy of the database (materialized exit).
func TestTCExitViewMatchesMaterialized(t *testing.T) {
	for _, rule := range tcOrientations {
		sys := mustSystem(t, rule, "p(X, Y) :- e(X, Y).")
		shape, ok := detectTC(sys)
		if !ok || shape.exitPred != "e" {
			t.Fatalf("%s: shape %+v, want an identity exit over e", rule, shape)
		}
		p, err := CompilePlan(sys)
		if err != nil {
			t.Fatal(err)
		}
		for seed := int64(1); seed <= 5; seed++ {
			live := tcTestDB(t, "a", 10, 18, 9, seed)
			mat := live.Clone()
			snap := live.Snapshot().DB()
			for _, qs := range tcAdornments {
				q := mustQuery(t, qs)
				got, gotAux, _, err := tcEvalAux(sys, shape, q, snap, Opts{})
				if err != nil {
					t.Fatal(err)
				}
				want, wantAux, _, err := tcEvalAux(sys, shape, q, mat, Opts{})
				if err != nil {
					t.Fatal(err)
				}
				if !gotAux.view || gotAux.exit != snap.Rel("e") {
					t.Errorf("%s seed %d %s: snapshot exit not a view of e", rule, seed, qs)
				}
				if wantAux.view {
					t.Errorf("%s seed %d %s: unfrozen database took the view", rule, seed, qs)
				}
				if !got.Equal(want) {
					t.Errorf("%s seed %d %s: view %d tuples, materialized %d", rule, seed, qs, got.Len(), want.Len())
				}
				full := streamRows(t, p.Stream(q, mat, Opts{}, 0))
				if s := streamRows(t, p.Stream(q, snap, Opts{}, 0)); !rowsEqual(s, full) {
					t.Errorf("%s seed %d %s: streamed view %v, materialized %v", rule, seed, qs, s, full)
				}
				for _, k := range []int{1, 3} {
					wantK := streamRows(t, p.Stream(q, mat, Opts{}, k))
					if s := streamRows(t, p.Stream(q, snap, Opts{}, k)); !rowsEqual(s, wantK) {
						t.Errorf("%s seed %d %s limit %d: view %v, materialized %v", rule, seed, qs, k, s, wantK)
					}
				}
			}
		}
	}
}

// TestTCExitViewFallbackShapes: exit shapes that are not an identity copy
// of a frozen binary relation must materialize E and still answer like the
// naive fixpoint, materialized and streamed.
func TestTCExitViewFallbackShapes(t *testing.T) {
	cases := []struct {
		name  string
		exits []string
		db    func(t *testing.T) *storage.Database // snapshot view unless noted
	}{
		{"swapped", []string{"p(X, Y) :- e(Y, X)."}, nil},
		{"two-rules", []string{"p(X, Y) :- e(X, Y).", "p(X, Y) :- g(X, Y)."}, nil},
		{"join", []string{"p(X, Y) :- e(X, Z), g(Z, Y)."}, nil},
		{"repeated-var", []string{"p(X, X) :- e(X, X)."}, nil},
		{"absent", []string{"p(X, Y) :- h(X, Y)."}, nil},
		{"unfrozen", []string{"p(X, Y) :- e(X, Y)."}, func(t *testing.T) *storage.Database {
			return tcTestDB(t, "a", 8, 14, 6, 3)
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for _, rule := range tcOrientations {
				sys := mustSystem(t, rule, c.exits...)
				shape, ok := detectTC(sys)
				if !ok {
					t.Fatalf("%s: not a TC shape", rule)
				}
				p, err := CompilePlan(sys)
				if err != nil {
					t.Fatal(err)
				}
				var db *storage.Database
				if c.db != nil {
					db = c.db(t)
				} else {
					db = tcTestDB(t, "a", 8, 14, 6, 3)
					if err := storage.GenRandomRelation(db, "g", 2, 8, 6, 5); err != nil {
						t.Fatal(err)
					}
					db = db.Snapshot().DB()
				}
				for _, qs := range tcAdornments {
					q := mustQuery(t, qs)
					got, aux, _, err := tcEvalAux(sys, shape, q, db, Opts{})
					if err != nil {
						t.Fatal(err)
					}
					if aux != nil && aux.view {
						t.Errorf("%s %s: took the exit view", rule, qs)
					}
					ref, _, err := Answer(StrategyNaive, sys, q, db)
					if err != nil {
						t.Fatal(err)
					}
					if !got.Equal(ref) {
						t.Errorf("%s %s: kernel %d tuples, naive %d", rule, qs, got.Len(), ref.Len())
					}
					if s := drainStream(t, p.Stream(q, db, Opts{}, 0)); !rowsEqual(s, relRows(ref)) {
						t.Errorf("%s %s: streamed %d rows, naive %d", rule, qs, len(s), ref.Len())
					}
				}
			}
		})
	}
}

// TestTCExitViewWrongArity: an identity exit over a relation of another
// arity is no view (evaluating it fails in the exit materialization, as it
// always has).
func TestTCExitViewWrongArity(t *testing.T) {
	db := storage.NewDatabase()
	if err := storage.GenRandomRelation(db, "e", 3, 6, 5, 1); err != nil {
		t.Fatal(err)
	}
	shape := &tcShape{edgePred: "a", rightLinear: true, exitPred: "e"}
	if r := exitView(shape, db.Snapshot().DB()); r != nil {
		t.Errorf("exit view over e/3 = %v, want nil", r)
	}
}

// TestTCExitViewCounters proves the view is taken on the serving path: a
// streamed bound query over a snapshot builds no index and allocates no
// arena, so dl_csr_builds_total and dl_arena_bytes_total stay at zero,
// while the same query over an unfrozen database pays for the exit copy.
func TestTCExitViewCounters(t *testing.T) {
	for _, rule := range tcOrientations {
		sys := mustSystem(t, rule, "p(X, Y) :- e(X, Y).")
		p, err := CompilePlan(sys)
		if err != nil {
			t.Fatal(err)
		}
		live := tcTestDB(t, "a", 10, 18, 9, 1)
		mat := live.Clone()
		snap := live.Snapshot().DB()
		for _, qs := range []string{"?- p(n1, Y).", "?- p(X, n2).", "?- p(n1, n2)."} {
			q := mustQuery(t, qs)
			reg := obs.NewRegistry()
			drainStream(t, p.Stream(q, snap, Opts{Metrics: reg}, 0))
			if b, a := reg.Counter(mCSRBuilds).Value(), reg.Counter(mArenaBytes).Value(); b != 0 || a != 0 {
				t.Errorf("%s %s over a snapshot: %d CSR builds, %d arena bytes; want 0 and 0", rule, qs, b, a)
			}
			reg = obs.NewRegistry()
			drainStream(t, p.Stream(q, mat, Opts{Metrics: reg}, 0))
			if a := reg.Counter(mArenaBytes).Value(); a == 0 {
				t.Errorf("%s %s over an unfrozen database: no arena bytes for the exit copy", rule, qs)
			}
		}
		// The materializing kernel counts its answers and nothing of E.
		reg := obs.NewRegistry()
		rel, _, err := p.AnswerOpts(mustQuery(t, "?- p(X, Y)."), snap, Opts{Metrics: reg})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := reg.Counter(mArenaBytes).Value(), rel.Stats().ArenaBytes; got != want {
			t.Errorf("%s all-free over a snapshot: %d arena bytes counted, answers own %d", rule, got, want)
		}
	}
}

// cachedTCAux returns the maintenance state of the cached entry for q.
func cachedTCAux(t *testing.T, rc *ResultCache, sys *ast.RecursiveSystem, q ast.Query, epoch uint64) *tcAux {
	t.Helper()
	rc.mu.Lock()
	defer rc.mu.Unlock()
	el, ok := rc.entries[resultKey{program: programKey(sys), query: q.String(), epoch: epoch}]
	if !ok {
		t.Fatalf("%v not cached at epoch %d", q, epoch)
	}
	aux, _ := el.Value.(*resultEntry).aux.(*tcAux)
	if aux == nil {
		t.Fatalf("%v cached without TC state", q)
	}
	return aux
}

// TestMaintainTCExitView: randomized insert batches into the exit
// predicate, the edge predicate, or both, for both orientations and a
// system whose edge and exit are the same relation. Every cached entry
// must be maintained (not recomputed), equal a from-scratch evaluation,
// hold the new snapshot's e as its exit, and leave the snapshot relation
// an earlier entry referenced frozen and unchanged.
func TestMaintainTCExitView(t *testing.T) {
	systems := []struct {
		name, rule string
	}{
		{"right-linear", tcOrientations[0]},
		{"left-linear", tcOrientations[1]},
		{"shared-edge", "p(X, Y) :- e(X, Z), p(Z, Y)."},
	}
	modes := []struct {
		name  string
		preds []string
	}{
		{"exit", []string{"e"}},
		{"edge", []string{"a"}},
		{"both", []string{"a", "e"}},
	}
	for _, s := range systems {
		for _, m := range modes {
			t.Run(s.name+"/"+m.name, func(t *testing.T) {
				sys := mustSystem(t, s.rule, "p(X, Y) :- e(X, Y).")
				r := rand.New(rand.NewSource(11))
				db := tcTestDB(t, "a", 12, 16, 8, 2)
				if err := insertAll(db, [][]string{{"e", "n1", "n2"}, {"a", "n2", "n1"}}); err != nil {
					t.Fatal(err)
				}
				pl, rc := NewPlanner(), NewResultCache(0)
				queries := make([]ast.Query, len(tcAdornments))
				for i, qs := range tcAdornments {
					queries[i] = mustQuery(t, qs)
				}
				snap := db.Snapshot()
				for _, q := range queries {
					if _, _, _, err := rc.Answer(pl, sys, q, snap, Opts{}); err != nil {
						t.Fatal(err)
					}
				}
				for round := 0; round < 5; round++ {
					old := snap
					held := cachedTCAux(t, rc, sys, queries[0], old.Epoch()).exit
					heldRows := relRows(held)
					for i := 0; i < 1+r.Intn(4); i++ {
						pred := m.preds[r.Intn(len(m.preds))]
						if _, err := db.Insert(pred, fmt.Sprintf("n%d", r.Intn(16)), fmt.Sprintf("n%d", r.Intn(16))); err != nil {
							t.Fatal(err)
						}
					}
					snap = db.Snapshot()
					res := rc.Maintain(old, snap, MaintSpec{Planner: pl, Sys: sys})
					if res.Maintained != len(queries) || res.Recomputed != 0 || res.Skipped != 0 {
						t.Fatalf("round %d: Maintain = %+v, want %d maintained", round, res, len(queries))
					}
					for i, q := range queries {
						aux := cachedTCAux(t, rc, sys, q, snap.Epoch())
						if !aux.view || aux.exit != snap.Rel("e") {
							t.Errorf("round %d %s: maintained exit is not the new snapshot's e", round, tcAdornments[i])
						}
						got, _, cached, err := rc.Answer(pl, sys, q, snap, Opts{})
						if err != nil {
							t.Fatal(err)
						}
						want, _, err := Answer(StrategySemiNaive, sys, q, snap.DB())
						if err != nil {
							t.Fatal(err)
						}
						if !cached || !got.Equal(want) {
							t.Errorf("round %d %s: cached=%v, maintained %d tuples, from-scratch %d",
								round, tcAdornments[i], cached, got.Len(), want.Len())
						}
					}
					if !held.Frozen() || !rowsEqual(relRows(held), heldRows) {
						t.Errorf("round %d: the snapshot relation an entry referenced changed", round)
					}
				}
			})
		}
	}
}

// TestResultCacheChargesPrivateExit: a materialized exit copy counts
// against the cache's byte budget; an exit view adds nothing.
func TestResultCacheChargesPrivateExit(t *testing.T) {
	db := tcTestDB(t, "a", 10, 18, 9, 4)
	if err := storage.GenRandomRelation(db, "g", 2, 10, 9, 6); err != nil {
		t.Fatal(err)
	}
	snap := db.Snapshot()
	q := mustQuery(t, "?- p(n1, Y).")
	for _, c := range []struct {
		name  string
		exits []string
		view  bool
	}{
		{"identity", []string{"p(X, Y) :- e(X, Y)."}, true},
		{"two-rules", []string{"p(X, Y) :- e(X, Y).", "p(X, Y) :- g(X, Y)."}, false},
	} {
		sys := mustSystem(t, tcOrientations[0], c.exits...)
		rc := NewResultCache(0)
		rel, _, _, err := rc.Answer(NewPlanner(), sys, q, snap, Opts{})
		if err != nil {
			t.Fatal(err)
		}
		aux := cachedTCAux(t, rc, sys, q, snap.Epoch())
		if aux.view != c.view {
			t.Fatalf("%s: exit view = %v, want %v", c.name, aux.view, c.view)
		}
		want := rel.SizeBytes() + int64(len(programKey(sys))+len(q.String())) + 96
		if !c.view {
			want += aux.exit.SizeBytes()
		}
		if got := rc.Bytes(); got != want {
			t.Errorf("%s: cache charged %d bytes, want %d", c.name, got, want)
		}
	}
}

// firstRowBytes returns the bytes allocated, averaged over runs, from
// opening a limit-16 stream of ?- p(n0, Y). to receiving its first row.
func firstRowBytes(t *testing.T, edges int) float64 {
	t.Helper()
	sys := mustSystem(t, "p(X, Y) :- e(X, Z), p(Z, Y).", "p(X, Y) :- e(X, Y).")
	p, err := CompilePlan(sys)
	if err != nil {
		t.Fatal(err)
	}
	db := storage.NewDatabase()
	if err := storage.GenRandomGraph(db, "e", edges/2, edges, 1); err != nil {
		t.Fatal(err)
	}
	snap := db.Snapshot().DB()
	q := mustQuery(t, "?- p(n0, Y).")
	opts := Opts{Metrics: obs.NewRegistry()}
	const runs = 50
	var total uint64
	var ms runtime.MemStats
	for i := 0; i < runs; i++ {
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		it := p.Stream(q, snap, opts, 16)
		if !it.Next() {
			t.Fatalf("%d edges: no first row (err %v)", edges, it.Err())
		}
		runtime.ReadMemStats(&ms)
		total += ms.TotalAlloc - before
		it.Close()
	}
	return float64(total) / runs
}

// TestTCStreamFirstRowAllocs guards the exit view: reaching the first row
// of a bound stream over a snapshot must not copy E, so its allocation
// stays flat (under 2x) while the graph grows 16x.
func TestTCStreamFirstRowAllocs(t *testing.T) {
	small, large := firstRowBytes(t, 1000), firstRowBytes(t, 16000)
	t.Logf("bytes to the first row: %.0f (1k edges), %.0f (16k edges)", small, large)
	if large >= 2*small {
		t.Errorf("first-row allocation grew from %.0f B (1k edges) to %.0f B (16k edges): want < 2x", small, large)
	}
}
