package eval

import (
	"fmt"

	"repro/internal/ast"
	"repro/internal/storage"
)

// Streaming variant of the TC-frontier kernel. The materializing kernel
// (tc.go) always computes the query's whole answer set; this one emits each
// answer the moment its BFS level derives it and — the goal-directed win —
// stops the sweep as soon as the answer set is provably complete:
//
//   - tc(a, b)? (both bound) walks outward from a and returns at the FIRST
//     frontier value whose exit tuple reaches b, never finishing the
//     closure;
//   - tc(a, X)? under a limit stops after the limit's worth of exit joins;
//   - the all-free query streams the semi-naive compose rounds as they
//     complete.
//
// Emitted tuples are freshly allocated pairs (bound cases) or headers
// aliasing the answers arena (free case), so they outlive the kernel's
// scratch state.

// tcStream pushes the query's answers into emit. It returns errStreamStop
// when emit declined a tuple or a bound-bound goal was answered early;
// callers treat that as a clean early end.
func tcStream(sys *ast.RecursiveSystem, shape *tcShape, q ast.Query, db *storage.Database, opts Opts, emit func(storage.Tuple) bool) (Stats, error) {
	var st Stats
	in, err := tcInputs(sys, shape, q, db)
	if err != nil {
		return st, err
	}
	exitRel, edges := in.exit, in.edges
	b0, b1, c0, c1 := in.b0, in.b1, in.c0, in.c1
	fix := opts.parent().Child("fixpoint").SetStr("engine", "tc-frontier").SetStr("mode", "stream").SetStr("exit", in.exitMode())
	defer fix.End()
	sink := newRoundSink(&st, opts, fix)
	// The all-free cases materialize a dedup relation; its write-path stats
	// flush with a private exit relation's in the single deferred flush.
	var answers *storage.Relation
	defer func() {
		fix.SetInt("rounds", int64(st.Rounds)).SetInt("derived", int64(st.Derived))
		sink.stratumDone(st.Rounds)
		flushRels(opts, &st, in.private(), answers)
	}()
	if in.unknown {
		return st, nil
	}

	if shape.rightLinear {
		// p(x, y) ⟺ ∃z: x →q* z ∧ E(z, y).
		switch {
		case b0 && b1:
			// Goal-directed point query: walk forward from c0, probing each
			// newly reached z for the single exit tuple E(z, c1). The first
			// hit IS the complete answer set — stop the BFS right there.
			probe := storage.Tuple{0, c1}
			found := false
			err := streamBFS(edges, 0, 1, []storage.Value{c0}, &st, &sink, opts, func(z storage.Value) bool {
				st.Facts++
				probe[0] = z
				if exitRel.Contains(probe) {
					found = true
					return false
				}
				return true
			})
			if err != nil && err != errStreamStop {
				return st, err
			}
			if found {
				st.Derived++
				if !emit(storage.Tuple{c0, c1}) {
					return st, errStreamStop
				}
			}
			return st, errStreamStop
		case b0:
			// Forward BFS from c0; each new z joins with E(z, y) and every
			// fresh y streams out immediately.
			ys := storage.NewValueSet(0)
			return st, streamBFS(edges, 0, 1, []storage.Value{c0}, &st, &sink, opts, func(z storage.Value) bool {
				ok := true
				exitRel.EachCol(0, z, func(t storage.Tuple) bool {
					st.Facts++
					if ys.Add(t[1]) {
						st.Derived++
						if !emit(storage.Tuple{c0, t[1]}) {
							ok = false
							return false
						}
					}
					return true
				})
				return ok
			})
		case b1:
			// Seeds {z : E(z, c1)}; every x reaching a seed is an answer and
			// streams out the moment the reverse BFS visits it.
			var seeds []storage.Value
			exitRel.EachCol(1, c1, func(t storage.Tuple) bool {
				seeds = append(seeds, t[0])
				return true
			})
			return st, streamBFS(edges, 1, 0, seeds, &st, &sink, opts, func(x storage.Value) bool {
				st.Facts++
				st.Derived++
				return emit(storage.Tuple{x, c1})
			})
		default:
			answers = storage.NewRelation(2)
			return st, composeStream(edges, exitRel, true, answers, &st, &sink, opts, emit)
		}
	}
	// p(x, y) ⟺ ∃z: E(x, z) ∧ z →q* y.
	switch {
	case b0 && b1:
		// Walk forward from the exit successors of c0 until c1 is reached.
		var seeds []storage.Value
		exitRel.EachCol(0, c0, func(t storage.Tuple) bool {
			seeds = append(seeds, t[1])
			return true
		})
		found := false
		err := streamBFS(edges, 0, 1, seeds, &st, &sink, opts, func(y storage.Value) bool {
			st.Facts++
			if y == c1 {
				found = true
				return false
			}
			return true
		})
		if err != nil && err != errStreamStop {
			return st, err
		}
		if found {
			st.Derived++
			if !emit(storage.Tuple{c0, c1}) {
				return st, errStreamStop
			}
		}
		return st, errStreamStop
	case b0:
		var seeds []storage.Value
		exitRel.EachCol(0, c0, func(t storage.Tuple) bool {
			seeds = append(seeds, t[1])
			return true
		})
		return st, streamBFS(edges, 0, 1, seeds, &st, &sink, opts, func(y storage.Value) bool {
			st.Facts++
			st.Derived++
			return emit(storage.Tuple{c0, y})
		})
	case b1:
		// Reverse BFS from c1; each new z joins with E(x, z) and every fresh
		// x streams out.
		xs := storage.NewValueSet(0)
		return st, streamBFS(edges, 1, 0, []storage.Value{c1}, &st, &sink, opts, func(z storage.Value) bool {
			ok := true
			exitRel.EachCol(1, z, func(t storage.Tuple) bool {
				st.Facts++
				if xs.Add(t[0]) {
					st.Derived++
					if !emit(storage.Tuple{t[0], c1}) {
						ok = false
						return false
					}
				}
				return true
			})
			return ok
		})
	default:
		answers = storage.NewRelation(2)
		return st, composeStream(edges, exitRel, false, answers, &st, &sink, opts, emit)
	}
}

// streamBFS is bfsClosure with a visit callback: every value entering the
// visited set (seeds included) is handed to visit before its edges are
// expanded. visit returning false ends the sweep with errStreamStop — the
// goal-directed early exit. The abort channel is polled per level.
func streamBFS(edges *storage.Relation, from, to int, seeds []storage.Value, st *Stats, sink *roundSink, opts Opts, visit func(storage.Value) bool) error {
	visited := storage.NewValueSet(len(seeds))
	frontier := make([]storage.Value, 0, len(seeds))
	for _, v := range seeds {
		if visited.Add(v) {
			if !visit(v) {
				return errStreamStop
			}
			frontier = append(frontier, v)
		}
	}
	if edges == nil {
		if len(frontier) > 0 {
			st.Rounds++
			sink.begin()
			sink.end(RoundStats{Round: st.Rounds, Delta: len(frontier)})
		}
		return nil
	}
	for len(frontier) > 0 {
		if opts.canceled() {
			return fmt.Errorf("tc-frontier stream: %w", ErrCanceled)
		}
		st.Rounds++
		sink.begin()
		facts0 := st.Facts
		stopped := false
		var next []storage.Value
		for _, v := range frontier {
			edges.EachCol(from, v, func(t storage.Tuple) bool {
				st.Facts++
				if w := t[to]; visited.Add(w) {
					if !visit(w) {
						stopped = true
						return false
					}
					next = append(next, w)
				}
				return true
			})
			if stopped {
				break
			}
		}
		sink.end(RoundStats{Round: st.Rounds, Delta: len(frontier), Derived: len(next), Attempted: st.Facts - facts0})
		if stopped {
			return errStreamStop
		}
		frontier = next
	}
	return nil
}

// composeStream is composeClosure emitting each fresh tuple (an arena-backed
// header) as it is inserted; a declined emit abandons the remaining rounds.
func composeStream(edges, exitRel *storage.Relation, rightLinear bool, answers *storage.Relation, st *Stats, sink *roundSink, opts Opts, emit func(storage.Tuple) bool) error {
	sink.begin()
	delta := make([]storage.Tuple, 0, exitRel.Len())
	stopped := false
	exitRel.Each(func(t storage.Tuple) bool {
		st.Facts++
		if answers.Insert(t) {
			st.Derived++
			fresh := answers.At(answers.Len() - 1)
			delta = append(delta, fresh)
			if !emit(fresh) {
				stopped = true
				return false
			}
		}
		return true
	})
	if len(delta) > 0 {
		st.Rounds++
	}
	sink.end(RoundStats{Round: st.Rounds, Derived: len(delta), Attempted: exitRel.Len()})
	if stopped {
		return errStreamStop
	}
	if edges == nil {
		return nil
	}
	nt := make(storage.Tuple, 2)
	for len(delta) > 0 {
		if opts.canceled() {
			return fmt.Errorf("tc-frontier stream: %w", ErrCanceled)
		}
		st.Rounds++
		sink.begin()
		facts0, derived0 := st.Facts, st.Derived
		var next []storage.Tuple
		insert := func() bool {
			if answers.Insert(nt) {
				st.Derived++
				fresh := answers.At(answers.Len() - 1)
				next = append(next, fresh)
				if !emit(fresh) {
					stopped = true
					return false
				}
			}
			return true
		}
		for _, d := range delta {
			if rightLinear {
				edges.EachCol(1, d[0], func(e storage.Tuple) bool {
					st.Facts++
					nt[0], nt[1] = e[0], d[1]
					return insert()
				})
			} else {
				edges.EachCol(0, d[1], func(e storage.Tuple) bool {
					st.Facts++
					nt[0], nt[1] = d[0], e[1]
					return insert()
				})
			}
			if stopped {
				break
			}
		}
		sink.end(RoundStats{Round: st.Rounds, Delta: len(delta), Derived: st.Derived - derived0, Attempted: st.Facts - facts0})
		if stopped {
			return errStreamStop
		}
		delta = next
	}
	return nil
}
