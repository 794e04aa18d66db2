package main

import "hash/fnv"

// rowHash is an order-independent digest of an answer set: the sum of a
// 64-bit FNV-1a hash of every row. Two sets with the same count and hash
// are taken to be equal.
func rowHash(rows [][]string) uint64 {
	var sum uint64
	for _, r := range rows {
		sum += hashRow(r)
	}
	return sum
}

func hashRow(r []string) uint64 {
	h := fnv.New64a()
	for i, s := range r {
		if i > 0 {
			h.Write([]byte{0x1f})
		}
		h.Write([]byte(s))
	}
	return h.Sum64()
}

// answer is a reference answer: the set of second-column nodes for a bound
// first argument.
type answer struct {
	set  map[int]bool
	hash uint64 // rowHash of the rows (key, y) for every y in set
}

// reachable returns the nodes reachable from src over one or more e edges:
// the answers of ?- p(src, Y). under the TC program.
func reachable(g *graph, src int) map[int]bool {
	adj := g.rels["e"]
	seen := make(map[int]bool)
	frontier := []int{src}
	for len(frontier) > 0 {
		var next []int
		for _, v := range frontier {
			for _, u := range adj[v] {
				if !seen[u] {
					seen[u] = true
					next = append(next, u)
				}
			}
		}
		frontier = next
	}
	return seen
}

// sameGeneration returns the answers of ?- sg(x, Y).: every y reached by
// climbing k up edges from x, taking one flat edge, and descending k down
// edges, for any k >= 0.
func sameGeneration(g *graph, x int) map[int]bool {
	up, down, flat := g.rels["up"], g.rels["down"], g.rels["flat"]
	out := make(map[int]bool)
	level := map[int]bool{x: true}
	for k := 0; len(level) > 0; k++ {
		cur := make(map[int]bool)
		for v := range level {
			for _, f := range flat[v] {
				cur[f] = true
			}
		}
		for j := 0; j < k && len(cur) > 0; j++ {
			nxt := make(map[int]bool)
			for v := range cur {
				for _, c := range down[v] {
					nxt[c] = true
				}
			}
			cur = nxt
		}
		for v := range cur {
			out[v] = true
		}
		nxt := make(map[int]bool)
		for v := range level {
			for _, p := range up[v] {
				nxt[p] = true
			}
		}
		level = nxt
		if k > g.base {
			break // up edges form a forest; this bound is never reached
		}
	}
	return out
}

// reference answers bound queries against one state of the graph,
// memoizing per key until the graph changes.
type reference struct {
	g    *graph
	tc   bool
	memo map[int]*answer
}

func newReference(g *graph, tc bool) *reference {
	return &reference{g: g, tc: tc, memo: make(map[int]*answer)}
}

func (r *reference) apply(b *batch) {
	for _, f := range b.facts {
		r.g.add(f)
	}
	r.memo = make(map[int]*answer)
}

func (r *reference) bound(key int) *answer {
	if a, ok := r.memo[key]; ok {
		return a
	}
	var set map[int]bool
	if r.tc {
		set = reachable(r.g, key)
	} else {
		set = sameGeneration(r.g, key)
	}
	a := &answer{set: set}
	kn := r.g.name(key)
	for y := range set {
		a.hash += hashRow([]string{kn, r.g.name(y)})
	}
	r.memo[key] = a
	return a
}

// id maps a node name back to its id (false for a name the generator
// never produces).
func (g *graph) id(name string) (int, bool) {
	if len(name) < 2 {
		return 0, false
	}
	n := 0
	for _, c := range name[1:] {
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int(c-'0')
	}
	switch name[0] {
	case 'n':
		return n, n < g.base
	case 'w':
		return g.base + n, true
	}
	return 0, false
}
