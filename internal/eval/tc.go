package eval

import (
	"fmt"

	"repro/internal/ast"
	"repro/internal/storage"
)

// The frontier-BFS kernel for unit-rotational (transitive-closure-shaped)
// rules. A rule of the form
//
//	p(X, Y) :- q(X, Z), p(Z, Y).   (right-linear)
//	p(X, Y) :- p(X, Z), q(Z, Y).   (left-linear)
//
// computes p = ∪_k q^k ∘ E (respectively ∪_k E ∘ q^k) over the exit
// relation E. Instead of running generic conjunction joins round after
// round, the kernel walks the q edge index directly: queries with a bound
// argument become a breadth-first reachability sweep over a value frontier
// (never touching the unreachable part of the graph), and the all-free
// query becomes a semi-naive relational compose that joins only the
// previous round's delta tuples against the edge index.

// tcShape records the detected orientation of a transitive-closure rule.
type tcShape struct {
	edgePred string
	// rightLinear: the edge literal precedes the recursive literal
	// (p = ∪ q^k ∘ E); otherwise left-linear (p = ∪ E ∘ q^k).
	rightLinear bool
	// exitPred is e when the system's only exit rule is the identity copy
	// p(X, Y) :- e(X, Y), so that E is the base relation e itself (see
	// exitView); empty for every other exit shape.
	exitPred string
}

// detectTC matches the recursive rule against the two transitive-closure
// orientations: binary head, a body of exactly one positive binary edge
// literal over a different predicate, and the chain variable linking the
// edge to the recursive literal. Head and recursive arguments are distinct
// variables by ValidateRecursive; the chain variable must be fresh.
func detectTC(sys *ast.RecursiveSystem) (*tcShape, bool) {
	rule := sys.Recursive
	if sys.Arity() != 2 || len(rule.Body) != 2 || !rule.IsLinearRecursive() {
		return nil, false
	}
	recAtom, recIdx := rule.RecursiveAtom()
	if recAtom.Neg {
		return nil, false
	}
	edge := rule.Body[1-recIdx]
	if edge.Neg || edge.Pred == rule.Head.Pred || edge.Arity() != 2 {
		return nil, false
	}
	for _, t := range edge.Args {
		if !t.IsVar() {
			return nil, false
		}
	}
	hx, hy := rule.Head.Args[0].Name, rule.Head.Args[1].Name
	// Right-linear: q(hx, Z), p(Z, hy) with Z fresh.
	if z := edge.Args[1].Name; edge.Args[0].Name == hx &&
		recAtom.Args[0].Name == z && recAtom.Args[1].Name == hy &&
		z != hx && z != hy {
		return &tcShape{edgePred: edge.Pred, rightLinear: true, exitPred: identityExit(sys)}, true
	}
	// Left-linear: p(hx, Z), q(Z, hy) with Z fresh.
	if z := recAtom.Args[1].Name; recAtom.Args[0].Name == hx &&
		edge.Args[0].Name == z && edge.Args[1].Name == hy &&
		z != hx && z != hy {
		return &tcShape{edgePred: edge.Pred, rightLinear: false, exitPred: identityExit(sys)}, true
	}
	return nil, false
}

// identityExit returns e when the system has exactly one exit rule and it
// is p(X1, ..., Xn) :- e(X1, ..., Xn): one positive atom whose arguments
// are the head's distinct variables in head order. Any other shape (a
// swapped or repeated variable, a constant, a join, a second exit rule)
// returns "".
func identityExit(sys *ast.RecursiveSystem) string {
	if len(sys.Exits) != 1 {
		return ""
	}
	head, body := sys.Exits[0].Head, sys.Exits[0].Body
	if len(body) != 1 || body[0].Neg || len(body[0].Args) != len(head.Args) {
		return ""
	}
	seen := make(map[string]bool, len(head.Args))
	for i, h := range head.Args {
		if !h.IsVar() || seen[h.Name] || body[0].Args[i] != h {
			return ""
		}
		seen[h.Name] = true
	}
	return body[0].Pred
}

// TCEval answers the query with the frontier kernel. The exit relation is
// read from the database as is for an identity exit rule over a frozen
// relation, and materialized from the system's exit rules otherwise; the
// edge relation is read from the database (an absent edge relation leaves
// only the k = 0 stratum).
func TCEval(sys *ast.RecursiveSystem, shape *tcShape, q ast.Query, db *storage.Database) (*storage.Relation, Stats, error) {
	return TCEvalOpts(sys, shape, q, db, Opts{})
}

// TCEvalOpts is TCEval with instrumentation: each BFS level (or compose
// round) becomes one round under a "fixpoint" span tagged engine=tc-frontier.
func TCEvalOpts(sys *ast.RecursiveSystem, shape *tcShape, q ast.Query, db *storage.Database, opts Opts) (*storage.Relation, Stats, error) {
	rel, _, st, err := tcEvalAux(sys, shape, q, db, opts)
	return rel, st, err
}

// tcInput is what both TC kernels read before their first round: the exit
// relation E, the edge relation q and the query's constants.
type tcInput struct {
	exit *storage.Relation
	// view: exit is the database's own frozen relation (an identity exit
	// rule over a snapshot), not a private copy. It is shared with every
	// other reader and its storage counters are the EDB's, not this
	// evaluation's.
	view   bool
	edges  *storage.Relation
	b0, b1 bool
	c0, c1 storage.Value
	// unknown: a bound constant the symbol table has never seen, so the
	// answer set is empty.
	unknown bool
}

// tcInputs is the shared prologue of tcEvalAux and tcStream. E is the
// snapshot's relation itself when exitView allows it, and is materialized
// from the exit rules otherwise; an absent edge relation leaves only the
// k = 0 stratum.
func tcInputs(sys *ast.RecursiveSystem, shape *tcShape, q ast.Query, db *storage.Database) (tcInput, error) {
	var in tcInput
	if q.Atom.Pred != sys.Pred() || q.Atom.Arity() != 2 {
		return in, fmt.Errorf("eval: query %v does not match predicate %s/2", q, sys.Pred())
	}
	if r := exitView(shape, db); r != nil {
		in.exit, in.view = r, true
	} else {
		exit, err := MaterializeExit(sys, db)
		if err != nil {
			return in, err
		}
		in.exit = exit
	}
	in.edges = db.Rel(shape.edgePred)
	if in.edges != nil && in.edges.Arity() != 2 {
		return in, fmt.Errorf("eval: edge relation %s has arity %d, want 2", shape.edgePred, in.edges.Arity())
	}
	in.b0, in.b1 = !q.Atom.Args[0].IsVar(), !q.Atom.Args[1].IsVar()
	if in.b0 {
		v, ok := db.Syms.Lookup(q.Atom.Args[0].Name)
		in.c0, in.unknown = v, !ok
	}
	if in.b1 {
		v, ok := db.Syms.Lookup(q.Atom.Args[1].Name)
		in.c1, in.unknown = v, in.unknown || !ok
	}
	return in, nil
}

// exitView returns the database's relation of the system's identity exit
// predicate when it can serve as E unchanged: present, binary and frozen
// (a snapshot relation, so already indexed and immutable). Nil otherwise:
// the caller materializes E, which for an unfrozen database also keeps the
// kernel from building indexes on the caller's relation.
func exitView(shape *tcShape, db *storage.Database) *storage.Relation {
	if shape.exitPred == "" {
		return nil
	}
	r := db.Rel(shape.exitPred)
	if r == nil || r.Arity() != 2 || !r.Frozen() {
		return nil
	}
	return r
}

// private returns the exit relation when this evaluation built it, nil when
// it is a view of the database (whose counters must not be re-counted).
func (in *tcInput) private() *storage.Relation {
	if in.view {
		return nil
	}
	return in.exit
}

// exitMode is the fixpoint span's exit attribute: which path built E.
func (in *tcInput) exitMode() string {
	if in.view {
		return "view"
	}
	return "materialized"
}

// tcEvalAux is TCEvalOpts additionally returning the kernel's maintenance
// state: the exit relation plus, for bound queries, the BFS visited set. A
// nil aux (the early-return paths for constants the symbol table has never
// seen) tells the maintenance pass to recompute instead.
func tcEvalAux(sys *ast.RecursiveSystem, shape *tcShape, q ast.Query, db *storage.Database, opts Opts) (*storage.Relation, *tcAux, Stats, error) {
	in, err := tcInputs(sys, shape, q, db)
	if err != nil {
		return nil, nil, Stats{}, err
	}
	exitRel, edges := in.exit, in.edges
	b0, b1, c0, c1 := in.b0, in.b1, in.c0, in.c1
	answers := storage.NewRelation(2)
	aux := &tcAux{exit: exitRel, view: in.view}
	var st Stats
	fix := opts.parent().Child("fixpoint").SetStr("engine", "tc-frontier").SetStr("exit", in.exitMode())
	defer fix.End()
	sink := newRoundSink(&st, opts, fix)
	defer func() {
		fix.SetInt("rounds", int64(st.Rounds)).SetInt("derived", int64(st.Derived))
		sink.stratumDone(st.Rounds)
		flushRels(opts, &st, answers, in.private())
	}()
	if in.unknown {
		return answers, nil, st, nil
	}

	buf := make(storage.Tuple, 2)
	if shape.rightLinear {
		// p(x, y) ⟺ ∃z: x →q* z ∧ E(z, y).
		switch {
		case b0:
			// Forward BFS from c0 over q, then join the closure with E.
			closure, err := bfsClosure(edges, 0, 1, []storage.Value{c0}, &st, &sink, opts)
			if err != nil {
				return nil, nil, st, err
			}
			aux.visited = closure
			closure.Each(func(z storage.Value) bool {
				exitRel.EachCol(0, z, func(t storage.Tuple) bool {
					st.Facts++
					buf[0], buf[1] = c0, t[1]
					if (!b1 || t[1] == c1) && answers.Insert(buf) {
						st.Derived++
					}
					return true
				})
				return true
			})
		case b1:
			// Seeds {z : E(z, c1)}, then reverse BFS over q: every x that
			// reaches a seed is an answer.
			var seeds []storage.Value
			exitRel.EachCol(1, c1, func(t storage.Tuple) bool {
				seeds = append(seeds, t[0])
				return true
			})
			visited, err := bfsClosure(edges, 1, 0, seeds, &st, &sink, opts)
			if err != nil {
				return nil, nil, st, err
			}
			aux.visited = visited
			aux.visited.Each(func(x storage.Value) bool {
				st.Facts++
				buf[0], buf[1] = x, c1
				if answers.Insert(buf) {
					st.Derived++
				}
				return true
			})
		default:
			// All free: semi-naive compose P ← P ∪ q ∘ ΔP seeded with E,
			// hash-sharded by the join endpoint when the edge relation is
			// large enough (chooseShardsTC).
			if shards := chooseShardsTC(opts, edges); shards > 1 {
				st.Shards = shards
				if err := shardedCompose(edges, exitRel, true, answers, shards, &st, &sink, opts); err != nil {
					return nil, nil, st, err
				}
			} else if err := composeClosure(edges, exitRel, true, answers, &st, &sink, opts); err != nil {
				return nil, nil, st, err
			}
		}
	} else {
		// p(x, y) ⟺ ∃z: E(x, z) ∧ z →q* y.
		switch {
		case b0:
			var seeds []storage.Value
			exitRel.EachCol(0, c0, func(t storage.Tuple) bool {
				seeds = append(seeds, t[1])
				return true
			})
			visited, err := bfsClosure(edges, 0, 1, seeds, &st, &sink, opts)
			if err != nil {
				return nil, nil, st, err
			}
			aux.visited = visited
			aux.visited.Each(func(y storage.Value) bool {
				st.Facts++
				buf[0], buf[1] = c0, y
				if (!b1 || y == c1) && answers.Insert(buf) {
					st.Derived++
				}
				return true
			})
		case b1:
			// Reverse BFS from c1 over q, then join the closure with E.
			closure, err := bfsClosure(edges, 1, 0, []storage.Value{c1}, &st, &sink, opts)
			if err != nil {
				return nil, nil, st, err
			}
			aux.visited = closure
			closure.Each(func(z storage.Value) bool {
				exitRel.EachCol(1, z, func(t storage.Tuple) bool {
					st.Facts++
					buf[0], buf[1] = t[0], c1
					if answers.Insert(buf) {
						st.Derived++
					}
					return true
				})
				return true
			})
		default:
			// All free: semi-naive compose P ← P ∪ ΔP ∘ q seeded with E,
			// hash-sharded by the join endpoint when the edge relation is
			// large enough (chooseShardsTC).
			if shards := chooseShardsTC(opts, edges); shards > 1 {
				st.Shards = shards
				if err := shardedCompose(edges, exitRel, false, answers, shards, &st, &sink, opts); err != nil {
					return nil, nil, st, err
				}
			} else if err := composeClosure(edges, exitRel, false, answers, &st, &sink, opts); err != nil {
				return nil, nil, st, err
			}
		}
	}
	return answers, aux, st, nil
}

// bfsClosure returns the set of values reachable from the seeds (seeds
// included) by repeatedly following edge tuples from column `from` to
// column `to`. Each BFS level counts as one round; each edge traversal
// counts as one attempted fact. The visited set is a word-hashed
// storage.ValueSet, so the sweep allocates only for set growth and the
// frontier slices.
func bfsClosure(edges *storage.Relation, from, to int, seeds []storage.Value, st *Stats, sink *roundSink, opts Opts) (*storage.ValueSet, error) {
	visited := storage.NewValueSet(len(seeds))
	frontier := make([]storage.Value, 0, len(seeds))
	for _, v := range seeds {
		if visited.Add(v) {
			frontier = append(frontier, v)
		}
	}
	if edges == nil {
		if len(frontier) > 0 {
			st.Rounds++
			sink.begin()
			sink.end(RoundStats{Round: st.Rounds, Delta: len(frontier)})
		}
		return visited, nil
	}
	for len(frontier) > 0 {
		if opts.canceled() {
			return nil, fmt.Errorf("tc-frontier bfs: %w", ErrCanceled)
		}
		st.Rounds++
		sink.begin()
		facts0 := st.Facts
		var next []storage.Value
		for _, v := range frontier {
			edges.EachCol(from, v, func(t storage.Tuple) bool {
				st.Facts++
				if w := t[to]; visited.Add(w) {
					next = append(next, w)
				}
				return true
			})
		}
		sink.end(RoundStats{Round: st.Rounds, Delta: len(frontier), Derived: len(next), Attempted: st.Facts - facts0})
		frontier = next
	}
	return visited, nil
}

// composeClosure computes the full closure relation for the all-free query:
// answers start as the exit relation and each round composes the previous
// delta with the edge relation — q ∘ Δ for the right-linear orientation
// (new (x, y) from q(x, z), Δ(z, y)), Δ ∘ q for the left-linear one. Delta
// entries alias the answers relation's arena (At after a successful
// Insert), so no tuple is ever cloned.
func composeClosure(edges, exitRel *storage.Relation, rightLinear bool, answers *storage.Relation, st *Stats, sink *roundSink, opts Opts) error {
	sink.begin()
	delta := make([]storage.Tuple, 0, exitRel.Len())
	exitRel.Each(func(t storage.Tuple) bool {
		st.Facts++
		if answers.Insert(t) {
			st.Derived++
			delta = append(delta, answers.At(answers.Len()-1))
		}
		return true
	})
	if len(delta) > 0 {
		st.Rounds++
	}
	sink.end(RoundStats{Round: st.Rounds, Derived: len(delta), Attempted: exitRel.Len()})
	if edges == nil {
		return nil
	}
	nt := make(storage.Tuple, 2)
	for len(delta) > 0 {
		if opts.canceled() {
			return fmt.Errorf("tc-frontier compose: %w", ErrCanceled)
		}
		st.Rounds++
		sink.begin()
		facts0, derived0 := st.Facts, st.Derived
		var next []storage.Tuple
		for _, d := range delta {
			if rightLinear {
				edges.EachCol(1, d[0], func(e storage.Tuple) bool {
					st.Facts++
					nt[0], nt[1] = e[0], d[1]
					if answers.Insert(nt) {
						st.Derived++
						next = append(next, answers.At(answers.Len()-1))
					}
					return true
				})
			} else {
				edges.EachCol(0, d[1], func(e storage.Tuple) bool {
					st.Facts++
					nt[0], nt[1] = d[0], e[1]
					if answers.Insert(nt) {
						st.Derived++
						next = append(next, answers.At(answers.Len()-1))
					}
					return true
				})
			}
		}
		sink.end(RoundStats{Round: st.Rounds, Delta: len(delta), Derived: st.Derived - derived0, Attempted: st.Facts - facts0})
		delta = next
	}
	return nil
}
