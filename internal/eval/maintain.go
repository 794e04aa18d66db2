package eval

import (
	"time"

	"repro/internal/ast"
	"repro/internal/storage"
)

// Incremental maintenance of cached materialized answers. A write batch
// advances the snapshot epoch, which used to cold-start every cached entry.
// Maintain instead carries the previous epoch's entries forward: it reads
// the insert-only diff between the two snapshots (storage.DiffSnapshots —
// cheap, the arena is append-only) and re-runs only the delta through the
// class-appropriate kernel:
//
//   - TC frontier plans restart the BFS from the new edges' endpoints
//     against the frozen closure (bound queries), or semi-naive-compose the
//     new edges against the frozen closure (all-free queries). The cached
//     exit relation and visited set captured at compute time (tcAux) make
//     the restart O(new reachable region), never O(graph). An identity
//     exit (p(X, Y) :- e(X, Y)) is a view of the snapshot's e: the new
//     snapshot's e is the new E and the diff's e tuples are its delta, so
//     nothing is cloned or re-indexed per entry.
//   - Bounded plans re-run only the expansion terms that mention a changed
//     predicate, inserting into a copy-on-write clone of the old answers.
//   - Stable/generic parallel plans run a sequential semi-naive delta pass
//     seeded with the inserted tuples over the frozen old fixpoint (fixAux),
//     shared by every cached query of the same program.
//
// Insert-only monotone semantics make this sound: for a positive program,
// restarting semi-naive iteration from any pre-fixpoint (here: the old
// least fixpoint plus the delta) converges to the new least fixpoint. The
// pass falls back to a full recompute whenever that argument does not hold
// (negation over a changed predicate, a replaced or shrunk relation, the
// delta closure exceeding the budget). Differential tests assert
// maintained ≡ recomputed across randomized insert batches for all four
// plan classes.

// MaintSpec tells ResultCache.Maintain which cached programs it may
// maintain and how to recompute the ones it cannot.
type MaintSpec struct {
	// Planner compiles (or looks up) the plan for entries of Sys.
	Planner *Planner
	// Sys is the single recursive system the serving layer answers; nil
	// when the server runs a general program instead.
	Sys *ast.RecursiveSystem
	// Prog and ProgKey describe the general program whose entries were
	// cached through AnswerProgram.
	Prog    *ast.Program
	ProgKey string
	// Opts carries workers, metrics and tracing into the delta passes and
	// fallback recomputes.
	Opts Opts
	// Budget caps the number of derivation attempts a delta pass may make
	// before falling back to a full recompute; 0 means an adaptive default
	// proportional to the entry size plus the diff size.
	Budget int
}

// MaintResult reports what happened to the maintainable entries.
type MaintResult struct {
	// Maintained entries were carried forward by a delta pass.
	Maintained int
	// Recomputed entries were rebuilt from scratch (fallback).
	Recomputed int
	// Skipped entries were left behind at the old epoch (foreign program,
	// failed recompute); they age out of the LRU.
	Skipped int
}

// tcAux is the maintenance state of a TC-frontier entry: the exit relation
// and, for bound queries, the BFS visited set. Both are immutable once the
// entry is published.
type tcAux struct {
	exit *storage.Relation
	// view: exit is the snapshot's relation of the identity exit predicate
	// (tcShape.exitPred), not a private copy. Maintenance then takes E from
	// the new snapshot instead of extending a clone, and the result cache
	// charges nothing for it.
	view    bool
	visited *storage.ValueSet // nil for the all-free query (answers = closure)
}

// auxBytes is the memory an entry's maintenance state holds beyond its
// answers that the cache budget charges for: a private exit copy. A view
// of the snapshot's relation belongs to the EDB and adds nothing.
func auxBytes(aux any) int64 {
	if a, ok := aux.(*tcAux); ok && a.exit != nil && !a.view {
		return a.exit.SizeBytes()
	}
	return 0
}

// fixAux is the maintenance state of a fixpoint-plan entry: the
// materialized IDB relations of the program at the entry's epoch. Shared by
// every cached query of the same program; immutable once published.
type fixAux struct {
	idb map[string]*storage.Relation
}

// newFixAux collects the head (and program-fact) relations of the program
// out of the engine's working database.
func newFixAux(prog *ast.Program, work *storage.Database) *fixAux {
	m := make(map[string]*storage.Relation)
	for _, r := range prog.Rules {
		if _, ok := m[r.Head.Pred]; !ok {
			if rel := work.Rel(r.Head.Pred); rel != nil {
				m[r.Head.Pred] = rel
			}
		}
	}
	for _, f := range prog.Facts {
		if _, ok := m[f.Pred]; !ok {
			if rel := work.Rel(f.Pred); rel != nil {
				m[f.Pred] = rel
			}
		}
	}
	return &fixAux{idb: m}
}

// freezeAux freezes the relations a maintenance state holds, making the
// entry safe for concurrent readers (and for CowClone at the next write).
func freezeAux(aux any) {
	switch a := aux.(type) {
	case *tcAux:
		if a.exit != nil {
			a.exit.Freeze()
		}
	case *fixAux:
		for _, r := range a.idb {
			r.Freeze()
		}
	}
}

// Maintain carries the cached entries of the old epoch forward to the new
// one. It runs on the writer's goroutine between taking the new snapshot
// and publishing it, so readers keep hitting the old epoch's entries until
// the maintained ones are in place. Entries belonging to programs the spec
// does not describe are skipped and age out of the LRU.
func (c *ResultCache) Maintain(old, cur *storage.Snapshot, spec MaintSpec) MaintResult {
	var res MaintResult
	if old == nil || cur == nil || old.Epoch() == cur.Epoch() {
		return res
	}
	start := time.Now()
	defer func() { c.maintDur.Observe(time.Since(start).Seconds()) }()

	diff, diffOK := storage.DiffSnapshots(old, cur)

	c.mu.Lock()
	var todo []*resultEntry
	for el := c.lru.Front(); el != nil; el = el.Next() {
		e := el.Value.(*resultEntry)
		if e.key.epoch == old.Epoch() && e.hasQuery {
			todo = append(todo, e)
		}
	}
	c.mu.Unlock()
	if len(todo) == 0 {
		return res
	}

	m := &maintainer{
		cache: c, cur: cur, spec: spec,
		diff: diff, diffOK: diffOK, diffSize: diff.Size(),
		fix: make(map[string]*fixState),
	}
	sysKey := ""
	if spec.Sys != nil && spec.Planner != nil {
		sysKey = programKey(spec.Sys)
	}
	for _, e := range todo {
		switch {
		case sysKey != "" && e.key.program == sysKey:
			m.entrySys(e, &res)
		case spec.Prog != nil && spec.ProgKey != "" && e.key.program == spec.ProgKey:
			m.entryProg(e, &res)
		default:
			res.Skipped++
		}
	}
	return res
}

// maintainer is the per-Maintain working state: the diff, and a memo so all
// cached queries of one program share a single maintained (or recomputed)
// fixpoint.
type maintainer struct {
	cache    *ResultCache
	cur      *storage.Snapshot
	spec     MaintSpec
	diff     *storage.SnapshotDiff
	diffOK   bool
	diffSize int
	fix      map[string]*fixState // program key → shared fixpoint outcome
}

// fixState is the memoized outcome of maintaining one program's fixpoint;
// nil in the memo records a failed attempt (don't retry per entry).
type fixState struct {
	aux        *fixAux
	maintained bool
}

// budget returns the derivation-attempt cap for a delta pass over an entry
// of the given size.
func (m *maintainer) budget(oldSize int) int {
	if m.spec.Budget > 0 {
		return m.spec.Budget
	}
	return 1<<14 + 32*(oldSize+m.diffSize)
}

// entrySys maintains one entry of the single-system serving path.
func (m *maintainer) entrySys(e *resultEntry, res *MaintResult) {
	p, _, err := m.spec.Planner.planFor(m.spec.Sys, e.q, m.cur.Epoch(), m.cur.DB(), m.spec.Opts)
	if err != nil {
		res.Skipped++
		return
	}
	if m.diffOK && m.diff.Empty() {
		// A write that inserted nothing new: the answers carry over as-is.
		m.publish(e, e.rel, e.aux, e.st, true, res)
		return
	}
	switch p.Kind {
	case PlanTC:
		if m.diffOK {
			aux, _ := e.aux.(*tcAux)
			if rel, na, ok := maintainTC(m.spec.Sys, p.tc, e.q, e.rel, aux, m.cur.DB(), m.diff, m.budget(e.rel.Len())); ok {
				m.publish(e, rel, na, e.st, true, res)
				return
			}
		}
	case PlanBounded:
		if m.diffOK {
			if rel, ok := maintainBounded(p.rules, e.q, e.rel, m.cur.DB(), m.diff); ok {
				m.publish(e, rel, nil, e.st, true, res)
				return
			}
		}
	default: // PlanStable, PlanGeneric: shared fixpoint maintenance.
		prog := m.spec.Sys.Program()
		if p.Kind == PlanStable {
			prog = p.stable.Program()
		}
		m.entryFix(prog, e, res)
		return
	}
	// Fallback: recompute the entry from scratch at the new epoch.
	rel, aux, st, err := p.answerAux(e.q, m.cur.DB(), m.spec.Opts)
	if err != nil {
		res.Skipped++
		return
	}
	m.publish(e, rel, aux, st, false, res)
}

// entryProg maintains one entry of the general-program serving path.
func (m *maintainer) entryProg(e *resultEntry, res *MaintResult) {
	if m.diffOK && m.diff.Empty() {
		m.publish(e, e.rel, e.aux, e.st, true, res)
		return
	}
	m.entryFix(m.spec.Prog, e, res)
}

// entryFix answers the entry's query from the program's shared maintained
// (or recomputed) fixpoint.
func (m *maintainer) entryFix(prog *ast.Program, e *resultEntry, res *MaintResult) {
	st := m.fixStateFor(prog, e)
	if st == nil {
		res.Skipped++
		return
	}
	ans, err := answerFromFix(st.aux, m.cur, e.q)
	if err != nil {
		res.Skipped++
		return
	}
	m.publish(e, ans, st.aux, e.st, st.maintained, res)
}

// fixStateFor returns the program's maintained fixpoint, computing it on
// first use: the incremental delta pass when the diff and the program allow
// it, a full recompute otherwise.
func (m *maintainer) fixStateFor(prog *ast.Program, e *resultEntry) *fixState {
	key := e.key.program
	if st, ok := m.fix[key]; ok {
		return st
	}
	var st *fixState
	if m.diffOK && !ast.HasNegation(prog) {
		if old, _ := e.aux.(*fixAux); old != nil {
			size := 0
			for _, r := range old.idb {
				size += r.Len()
			}
			if na, ok := incrementalFixpoint(prog, old, m.cur.DB(), m.diff, m.budget(size)); ok {
				st = &fixState{aux: na, maintained: true}
			}
		}
	}
	if st == nil {
		if out, _, err := ParallelSemiNaiveOpts(prog, m.cur.DB(), m.spec.Opts); err == nil {
			st = &fixState{aux: newFixAux(prog, out)}
		}
	}
	m.fix[key] = st
	return st
}

// publish freezes and inserts the carried-forward entry under the new
// epoch, counting it as maintained or recomputed.
func (m *maintainer) publish(e *resultEntry, rel *storage.Relation, aux any, st Stats, maintained bool, res *MaintResult) {
	rel.Freeze()
	if aux != nil {
		freezeAux(aux)
	}
	st.Maintained = maintained
	ne := &resultEntry{
		key:      resultKey{program: e.key.program, query: e.key.query, epoch: m.cur.Epoch()},
		rel:      rel,
		st:       st,
		q:        e.q,
		hasQuery: true,
		aux:      aux,
	}
	c := m.cache
	c.mu.Lock()
	// The carried entry supersedes the old-epoch one; dropping it keeps the
	// cache (and the per-write Maintain scan) from growing by one stale
	// entry per write. A reader still pinned to the old snapshot simply
	// recomputes on its next probe.
	if el, ok := c.entries[e.key]; ok && el.Value.(*resultEntry) == e {
		c.lru.Remove(el)
		delete(c.entries, e.key)
		c.bytes -= e.size
	}
	c.insertLocked(ne)
	c.mu.Unlock()
	if maintained {
		c.maintained.Inc()
		res.Maintained++
	} else {
		c.recomputed.Inc()
		res.Recomputed++
	}
}

// answerFromFix selects the query's answers out of the maintained fixpoint
// (falling back to the snapshot's base relation for a non-derived
// predicate).
func answerFromFix(aux *fixAux, cur *storage.Snapshot, q ast.Query) (*storage.Relation, error) {
	overlay := storage.NewDatabaseWithSymbols(cur.Syms())
	for pred, r := range aux.idb {
		overlay.Set(pred, r)
	}
	if overlay.Rel(q.Atom.Pred) == nil {
		if r := cur.Rel(q.Atom.Pred); r != nil {
			overlay.Set(q.Atom.Pred, r)
		}
	}
	return AnswerQuery(overlay, q)
}

// maintainTC carries one TC-frontier entry across an insert-only diff. The
// bound cases restart the BFS from the frontier the new edges open up
// (sources already visited, targets not yet) against the cloned visited
// set, then emit answers only for the newly visited values (plus the new
// exit tuples joined against the whole visited set for the closure-join
// cases). The all-free case semi-naive-composes the new edges and exit
// tuples against a copy-on-write clone of the frozen closure. Reports
// ok=false — recompute instead — when negation is involved, the shapes
// don't line up, or the budget is exceeded.
func maintainTC(sys *ast.RecursiveSystem, shape *tcShape, q ast.Query, oldRel *storage.Relation, aux *tcAux, db *storage.Database, diff *storage.SnapshotDiff, budget int) (*storage.Relation, *tcAux, bool) {
	if aux == nil || aux.exit == nil {
		return nil, nil, false
	}
	var (
		exit      *storage.Relation
		exitDelta []storage.Tuple
		ok        bool
	)
	if aux.view {
		// E is the base relation: the new snapshot's header already holds
		// the inserted tuples, and the diff lists exactly those.
		exit, exitDelta = exitView(shape, db), diff.Inserted[shape.exitPred]
		ok = exit != nil
	} else {
		exit, exitDelta, ok = maintainExit(sys, aux.exit, db, diff)
	}
	if !ok {
		return nil, nil, false
	}
	edges := db.Rel(shape.edgePred)
	if edges != nil && edges.Arity() != 2 {
		return nil, nil, false
	}
	edgeDelta := diff.Inserted[shape.edgePred]
	if len(edgeDelta) == 0 && len(exitDelta) == 0 {
		// Nothing this entry reads grew: answers and state carry over.
		return oldRel, &tcAux{exit: exit, view: aux.view, visited: aux.visited}, true
	}

	b0, b1 := !q.Atom.Args[0].IsVar(), !q.Atom.Args[1].IsVar()
	var c0, c1 storage.Value
	if b0 {
		v, ok := db.Syms.Lookup(q.Atom.Args[0].Name)
		if !ok {
			return nil, nil, false
		}
		c0 = v
	}
	if b1 {
		v, ok := db.Syms.Lookup(q.Atom.Args[1].Name)
		if !ok {
			return nil, nil, false
		}
		c1 = v
	}

	out := oldRel.CowClone()
	attempts, exceeded := 0, false
	rl := shape.rightLinear

	if !b0 && !b1 {
		// All-free: the answers are the closure. Seed the delta with the new
		// exit tuples and the new edges composed against the frozen old
		// closure, then compose rounds against the full new edge relation.
		var delta []storage.Tuple
		insert := func(t storage.Tuple) bool {
			attempts++
			if attempts > budget {
				exceeded = true
				return false
			}
			if out.Insert(t) {
				delta = append(delta, out.At(out.Len()-1))
			}
			return true
		}
		for _, t := range exitDelta {
			if !insert(t) {
				break
			}
		}
		nt := make(storage.Tuple, 2)
		for _, e := range edgeDelta {
			if exceeded {
				break
			}
			if rl {
				// Δq(u, v) ∘ p_old(v, y) → p(u, y).
				oldRel.EachCol(0, e[1], func(p storage.Tuple) bool {
					nt[0], nt[1] = e[0], p[1]
					return insert(nt)
				})
			} else {
				// p_old(x, z) ∘ Δq(z, y) → p(x, y).
				oldRel.EachCol(1, e[0], func(p storage.Tuple) bool {
					nt[0], nt[1] = p[0], e[1]
					return insert(nt)
				})
			}
		}
		for !exceeded && len(delta) > 0 && edges != nil {
			round := delta
			delta = nil
			for _, d := range round {
				if exceeded {
					break
				}
				if rl {
					edges.EachCol(1, d[0], func(e storage.Tuple) bool {
						nt[0], nt[1] = e[0], d[1]
						return insert(nt)
					})
				} else {
					edges.EachCol(0, d[1], func(e storage.Tuple) bool {
						nt[0], nt[1] = d[0], e[1]
						return insert(nt)
					})
				}
			}
		}
		if exceeded {
			return nil, nil, false
		}
		out.CompactIndexes()
		return out, &tcAux{exit: exit, view: aux.view}, true
	}

	// Bound query: restart the BFS. The traversal direction and the roles
	// of the exit relation mirror tcEvalAux's four cases.
	if aux.visited == nil {
		return nil, nil, false
	}
	visited := aux.visited.Clone()
	var newVals []storage.Value
	addSeed := func(v storage.Value) {
		if visited.Add(v) {
			newVals = append(newVals, v)
		}
	}
	from, to := 1, 0
	if b0 {
		from, to = 0, 1
	}
	// eJoin: the answers come from joining the visited set with the exit
	// relation (seeds were the query constant); otherwise the exit relation
	// provided the seeds and new exit tuples open new BFS sources. Mirrors
	// tcEvalAux's dispatch, where b0 takes precedence over b1: a both-bound
	// query uses the b0 strategy of its orientation.
	eJoin := (rl && b0) || (!rl && !b0)
	if !eJoin {
		for _, t := range exitDelta {
			if rl { // seeds {z : E(z, c1)}
				if t[1] == c1 {
					addSeed(t[0])
				}
			} else { // seeds {z : E(c0, z)}
				if t[0] == c0 {
					addSeed(t[1])
				}
			}
		}
	}
	// New edges whose source is already reachable open their targets.
	for _, e := range edgeDelta {
		if visited.Contains(e[from]) {
			addSeed(e[to])
		}
	}
	// BFS from the new values over the full (new) edge relation.
	for qi := 0; qi < len(newVals) && !exceeded && edges != nil; qi++ {
		edges.EachCol(from, newVals[qi], func(t storage.Tuple) bool {
			attempts++
			if attempts > budget {
				exceeded = true
				return false
			}
			addSeed(t[to])
			return true
		})
	}
	if exceeded {
		return nil, nil, false
	}
	// Emit the answers the new values (and new exit tuples) contribute.
	nt := make(storage.Tuple, 2)
	insert := func() bool {
		attempts++
		if attempts > budget {
			exceeded = true
			return false
		}
		out.Insert(nt)
		return true
	}
	for _, v := range newVals {
		if exceeded {
			break
		}
		switch {
		case rl && b0: // (c0, y) for E(v, y)
			exit.EachCol(0, v, func(t storage.Tuple) bool {
				if b1 && t[1] != c1 {
					return true
				}
				nt[0], nt[1] = c0, t[1]
				return insert()
			})
		case rl: // b1 only: every visited x answers (x, c1)
			nt[0], nt[1] = v, c1
			insert()
		case b0: // !rl: every visited y answers (c0, y)
			if !b1 || v == c1 {
				nt[0], nt[1] = c0, v
				insert()
			}
		default: // !rl, b1 only: (x, c1) for E(x, v)
			exit.EachCol(1, v, func(t storage.Tuple) bool {
				nt[0], nt[1] = t[0], c1
				return insert()
			})
		}
	}
	if eJoin {
		// New exit tuples answer for every visited value, old or new.
		for _, t := range exitDelta {
			if exceeded {
				break
			}
			if rl { // E(z, y), z visited → (c0, y)
				if visited.Contains(t[0]) && (!b1 || t[1] == c1) {
					nt[0], nt[1] = c0, t[1]
					insert()
				}
			} else { // E(x, z), z visited → (x, c1)
				if visited.Contains(t[1]) {
					nt[0], nt[1] = t[0], c1
					insert()
				}
			}
		}
	}
	if exceeded {
		return nil, nil, false
	}
	out.CompactIndexes()
	return out, &tcAux{exit: exit, view: aux.view, visited: visited}, true
}

// maintainExit carries a private (materialized) exit relation across the
// diff. Exit rules reading a changed predicate are delta-evaluated into a
// copy-on-write clone; it returns the new exit relation and its new
// tuples, or ok=false when a changed predicate occurs negated.
func maintainExit(sys *ast.RecursiveSystem, old *storage.Relation, db *storage.Database, diff *storage.SnapshotDiff) (*storage.Relation, []storage.Tuple, bool) {
	// Exit rules reading a changed predicate force an exit rematerialize;
	// negation over a changed predicate breaks insert-only monotonicity.
	exitChanged := false
	for _, er := range sys.Exits {
		for _, a := range er.Body {
			if len(diff.Inserted[a.Pred]) == 0 {
				continue
			}
			if a.Neg {
				return nil, nil, false
			}
			exitChanged = true
		}
	}
	if !exitChanged {
		return old, nil, true
	}
	// Delta-evaluate only the affected exit rules: each positive occurrence
	// of a changed predicate runs once restricted to the new tuples, the
	// other occurrences reading the full (new) database — the semi-naive
	// seeded join, here over the nonrecursive exit rules. Rematerializing
	// the whole exit relation would make every write O(database), swamping
	// the delta pass it feeds.
	rules, err := compileRules(db.Syms, sys.Exits, nil)
	if err != nil {
		return nil, nil, false
	}
	ne := old.CowClone()
	var exitDelta []storage.Tuple
	rels := DBRels(db)
	for ri := range rules {
		cr := &rules[ri]
		buf := make(storage.Tuple, len(cr.slots))
		s := newSeeder(cr.conj, rels, cr.conj.NewBinding(), func(b []storage.Value) bool {
			for i, sl := range cr.slots {
				if sl >= 0 {
					buf[i] = b[sl]
				} else {
					buf[i] = cr.fixed[i]
				}
			}
			if ne.Insert(buf) {
				exitDelta = append(exitDelta, ne.At(ne.Len()-1))
			}
			return true
		})
		for bi, a := range cr.rule.Body {
			ts := diff.Inserted[a.Pred]
			if a.Neg || len(ts) == 0 {
				continue
			}
			arity := a.Arity()
			for _, t := range ts {
				if len(t) == arity {
					s.seed(bi, t)
				}
			}
		}
	}
	ne.CompactIndexes()
	return ne, exitDelta, true
}

// maintainBounded carries one bounded-union entry across an insert-only
// diff by re-running only the expansion rules that mention a changed
// predicate, inserting into a copy-on-write clone of the old answers.
// Sound because the expansion union is monotone in its positive literals;
// a changed predicate under negation (in any rule — an unchanged rule's old
// derivations could be invalidated too) forces a recompute.
func maintainBounded(rules []ast.Rule, q ast.Query, oldRel *storage.Relation, db *storage.Database, diff *storage.SnapshotDiff) (*storage.Relation, bool) {
	var affected []ast.Rule
	for _, r := range rules {
		hit := false
		for _, a := range r.Body {
			if len(diff.Inserted[a.Pred]) == 0 {
				continue
			}
			if a.Neg {
				return nil, false
			}
			hit = true
		}
		if hit {
			affected = append(affected, r)
		}
	}
	if len(affected) == 0 {
		return oldRel, true
	}
	out := oldRel.CowClone()
	var st Stats
	if err := EvalNonRecursive(affected, q, db, out, &st); err != nil {
		return nil, false
	}
	out.CompactIndexes()
	return out, true
}

// incrementalFixpoint carries a program's materialized least fixpoint
// across an insert-only EDB delta: the old IDB relations are extended
// copy-on-write, the inserted tuples seed one occurrence-restricted pass
// per rule (the standard semi-naive seed, but over the diff instead of the
// whole database), and delta rounds run to quiescence. Sound for positive
// programs only — restarting semi-naive iteration from the old fixpoint
// plus the delta converges to the new least fixpoint because evaluation is
// monotone and the old fixpoint is a subset of the new one.
func incrementalFixpoint(prog *ast.Program, aux *fixAux, db *storage.Database, diff *storage.SnapshotDiff, budget int) (*fixAux, bool) {
	if ast.HasNegation(prog) {
		return nil, false
	}
	idb := make(map[string]bool, len(aux.idb))
	for pred := range aux.idb {
		idb[pred] = true
	}
	for _, r := range prog.Rules {
		if !idb[r.Head.Pred] {
			return nil, false // fixpoint state predates this rule's head
		}
	}
	// Working database: the new EDB shared read-only, the old IDB extended
	// copy-on-write (Ensure cow-clones the frozen relations).
	work := storage.NewDatabaseWithSymbols(db.Syms)
	for _, pred := range db.Preds() {
		if !idb[pred] {
			work.Set(pred, db.Rel(pred))
		}
	}
	heads := make(map[string]*storage.Relation, len(aux.idb))
	for pred, r := range aux.idb {
		work.Set(pred, r)
		wr, err := work.Ensure(pred, r.Arity())
		if err != nil {
			return nil, false
		}
		heads[pred] = wr
	}
	rules, err := compileRules(db.Syms, prog.Rules, nil)
	if err != nil {
		return nil, false
	}
	full := DBRels(work)

	attempts, exceeded := 0, false
	delta := make(map[string][]storage.Tuple)
	// New EDB tuples of derived predicates (facts loaded for an IDB-named
	// predicate) enter the fixpoint and the delta directly.
	for pred, ts := range diff.Inserted {
		wr := heads[pred]
		if wr == nil {
			continue
		}
		for _, t := range ts {
			if len(t) != wr.Arity() {
				return nil, false
			}
			if wr.Insert(t) {
				delta[pred] = append(delta[pred], wr.At(wr.Len()-1))
			}
		}
	}
	// runOccurrence evaluates one rule with one positive body occurrence
	// restricted to the given tuples, the other occurrences reading the
	// full working database — the seeded join of the semi-naive engine.
	runOccurrence := func(cr *compiledRule, bi int, tuples []storage.Tuple) {
		head := heads[cr.rule.Head.Pred]
		buf := make(storage.Tuple, len(cr.slots))
		s := newSeeder(cr.conj, full, cr.conj.NewBinding(), func(b []storage.Value) bool {
			for i, sl := range cr.slots {
				if sl >= 0 {
					buf[i] = b[sl]
				} else {
					buf[i] = cr.fixed[i]
				}
			}
			attempts++
			if attempts > budget {
				exceeded = true
				return false
			}
			if head.Insert(buf) {
				delta[cr.rule.Head.Pred] = append(delta[cr.rule.Head.Pred], head.At(head.Len()-1))
			}
			return true
		})
		arity := cr.rule.Body[bi].Arity()
		for _, t := range tuples {
			if exceeded {
				return
			}
			if len(t) != arity {
				continue // the occurrence can never match this relation
			}
			s.seed(bi, t)
		}
	}
	// Seed pass: every rule occurrence over a changed base predicate runs
	// once with that occurrence restricted to the new tuples. Two changed
	// occurrences in one rule are covered pairwise: each seeding reads the
	// other occurrence's full (new) relation.
	for ri := range rules {
		cr := &rules[ri]
		for bi, a := range cr.rule.Body {
			if a.Neg || idb[a.Pred] {
				continue
			}
			if ts := diff.Inserted[a.Pred]; len(ts) > 0 {
				runOccurrence(cr, bi, ts)
			}
			if exceeded {
				return nil, false
			}
		}
	}
	// Delta rounds over the derived predicates to quiescence.
	for len(delta) > 0 {
		round := delta
		delta = make(map[string][]storage.Tuple)
		for ri := range rules {
			cr := &rules[ri]
			for bi, a := range cr.rule.Body {
				if a.Neg || !idb[a.Pred] {
					continue
				}
				if ts := round[a.Pred]; len(ts) > 0 {
					runOccurrence(cr, bi, ts)
				}
				if exceeded {
					return nil, false
				}
			}
		}
	}
	for _, r := range heads {
		r.CompactIndexes()
	}
	return &fixAux{idb: heads}, true
}
