package main

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
)

// opKind is the kind of one generated operation.
type opKind uint8

const (
	opQuery  opKind = iota // GET /query, one JSON body
	opStream               // GET /query&stream=1&limit=k, NDJSON rows
	opWrite                // POST /facts
)

// op is one operation of a workload's request stream.
type op struct {
	kind  opKind
	query string // Datalog query text (opQuery, opStream)
	key   int    // bound node of the query, or -1 for the all-free form
	limit int    // answer cap of a streamed query
	write *batch // opWrite
}

// batch is one POST /facts body and the facts it adds, for the reference.
type batch struct {
	body  string
	facts []fact
}

// fact is one ground fact over node ids.
type fact struct {
	pred string
	a, b int
}

// Programs served by dlserve. tcProgram is class A1 with the TC-frontier
// plan; sgProgram is A1 but not TC-shaped, so it gets the generic semi-naive
// plan.
const (
	tcProgram = "p(X, Y) :- e(X, Y).\np(X, Y) :- e(X, Z), p(Z, Y).\n"
	sgProgram = "sg(X, Y) :- up(X, X1), sg(X1, Y1), down(Y1, Y).\nsg(X, Y) :- flat(X, Y).\n"
)

// workload fixes everything about one traffic mix except the seed. The
// offered rate and latency limit were chosen once from this
// benchmark's measured capacity on a 2-CPU host and are never recalibrated
// per run.
type workload struct {
	name string
	why  string
	tc   bool // transitive-closure program (else same-generation)

	// Data sizes.
	comps, compMin, compMax int     // TC: strongly connected components and their size range
	trees, treeDepth        int     // SG: complete binary trees and their depth
	flatFrac                float64 // SG: flat pairs per node at every depth
	hotKeys                 int     // TC: keys the Zipf traffic picks from (0 = all nodes uniform)
	zipfS                   float64 // Zipf exponent over the hot keys

	// Traffic.
	writeShare  float64 // share of writes in the measured stream
	streamShare float64 // share of streamed queries (stream-limit: all)
	freeShare   float64 // share of all-free queries among streamed ones
	limits      []int   // stream answer caps to pick from
	cacheBytes  int64   // dlserve -cache-bytes (0 = default)
	warmOps     int     // warm-up operations after /readyz (hot keys: each key once)

	rate    float64 // fixed offered rate, operations per second
	limitUS float64 // latency limit on the capacity phase's query p90
}

var workloads = []*workload{
	{
		name: "hot-read",
		why:  "repeated Zipf-skewed bound TC queries over a cached key set, so after warm-up every request is a result-cache hit and parse, decode, encode and HTTP dominate",
		tc:   true, comps: 16, compMin: 100, compMax: 300, hotKeys: 16, zipfS: 1.2,
		rate: 300, limitUS: 50000,
	},
	{
		name: "cold-fixpoint",
		why:  "uniform bound same-generation queries with a result cache smaller than the answer working set, so most requests run the generic semi-naive fixpoint",
		tc:   false, trees: 12, treeDepth: 5, flatFrac: 0.05,
		cacheBytes: 16 << 10, warmOps: 200,
		rate: 50, limitUS: 100000,
	},
	{
		name: "write-mix",
		why:  "hot-read traffic interleaved with small POST /facts batches that grow the graph, so every write pays for snapshot, diff and result-cache maintenance",
		tc:   true, comps: 16, compMin: 100, compMax: 300, hotKeys: 16, zipfS: 1.2,
		writeShare: 0.1,
		rate:       100, limitUS: 100000,
	},
	{
		name: "stream-limit",
		why:  "streamed NDJSON TC queries with a row limit, bound-first and all-free, which never hit the cache and exit the streaming kernel early",
		tc:   true, comps: 24, compMin: 100, compMax: 300,
		streamShare: 1, freeShare: 0.3, limits: []int{16, 64}, warmOps: 50,
		rate: 40, limitUS: 100000,
	},
}

// keyStride spreads hot key ranks over the components: rank i uses
// component (comps/2 + i*keyStride) mod comps, distinct while keyStride and
// comps share no factor.
const keyStride = 7

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

// dataset is a workload's generated input: the program and bulk facts
// dlserve loads, and the graph the reference answers are computed from.
type dataset struct {
	program string
	facts   string
	nfacts  int
	g       *graph
	keys    []int // hot keys (TC with hotKeys > 0)
}

// graph holds the EDB as adjacency lists over node ids. Base nodes are
// named n<i>; nodes added by writes are named w<j>.
type graph struct {
	base  int
	added int
	rels  map[string]map[int][]int // pred -> adjacency (forward: a -> b)
	comp  []int                    // TC: component of each base node
	comps [][]int                  // TC: members of each component
}

func (g *graph) name(v int) string {
	if v < g.base {
		return fmt.Sprintf("n%d", v)
	}
	return fmt.Sprintf("w%d", v-g.base)
}

func (g *graph) add(f fact) {
	if n := max(f.a, f.b) + 1 - g.base; n > g.added {
		g.added = n
	}
	adj := g.rels[f.pred]
	if adj == nil {
		adj = make(map[int][]int)
		g.rels[f.pred] = adj
	}
	adj[f.a] = append(adj[f.a], f.b)
}

// clone copies the graph so reference replays can extend it freely.
func (g *graph) clone() *graph {
	c := &graph{base: g.base, added: g.added, rels: make(map[string]map[int][]int), comp: g.comp, comps: g.comps}
	for p, adj := range g.rels {
		cp := make(map[int][]int, len(adj))
		for v, l := range adj {
			cp[v] = append([]int(nil), l...)
		}
		c.rels[p] = cp
	}
	return c
}

// generate builds the workload's dataset from the seed. The same seed gives
// byte-identical program and fact text.
func generate(w *workload, seed int64) *dataset {
	rng := rand.New(rand.NewSource(seed))
	g := &graph{rels: make(map[string]map[int][]int)}
	var facts []fact
	seen := make(map[fact]bool)
	addFact := func(f fact) bool {
		if f.a == f.b || seen[f] {
			return false
		}
		seen[f] = true
		facts = append(facts, f)
		return true
	}
	ds := &dataset{g: g}
	if w.tc {
		// Component sizes are spread evenly over [compMin, compMax] and hot
		// key rank i always lands in the same component, so answer sizes and
		// their Zipf weights do not depend on the seed; the seed picks the
		// edges and the key node inside its component.
		ds.program = tcProgram
		for c := 0; c < w.comps; c++ {
			size := w.compMin + c*(w.compMax-w.compMin)/max(1, w.comps-1)
			members := make([]int, size)
			for i := range members {
				members[i] = g.base + i
				g.comp = append(g.comp, c)
			}
			g.base += size
			g.comps = append(g.comps, members)
			// A random Hamiltonian cycle makes the component strongly
			// connected; size/2 random chords add shortcuts.
			perm := rng.Perm(size)
			for i := range perm {
				addFact(fact{"e", members[perm[i]], members[perm[(i+1)%size]]})
			}
			for n := 0; n < size/2; {
				if addFact(fact{"e", members[rng.Intn(size)], members[rng.Intn(size)]}) {
					n++
				}
			}
		}
		for i := 0; i < w.hotKeys; i++ {
			members := g.comps[(w.comps/2+i*keyStride)%w.comps]
			ds.keys = append(ds.keys, members[rng.Intn(len(members))])
		}
	} else {
		// Complete binary trees of depth treeDepth, and flat pairs between
		// same-depth nodes of different trees, the same number per depth for
		// every seed: the size of the whole same-generation relation is fixed,
		// and the seed only picks which nodes the flat pairs join.
		ds.program = sgProgram
		per := 1<<(w.treeDepth+1) - 1
		node := func(tree, heap int) int { return tree*per + heap - 1 }
		for t := 0; t < w.trees; t++ {
			for h := 2; h <= per; h++ {
				addFact(fact{"up", node(t, h), node(t, h/2)})
				addFact(fact{"down", node(t, h/2), node(t, h)})
			}
		}
		g.base = w.trees * per
		for d := 0; d <= w.treeDepth; d++ {
			width := 1 << d
			for n := int(math.Round(w.flatFrac * float64(w.trees*width))); n > 0; {
				t1, t2 := rng.Intn(w.trees), rng.Intn(w.trees)
				if t1 != t2 && addFact(fact{"flat", node(t1, width+rng.Intn(width)), node(t2, width+rng.Intn(width))}) {
					n--
				}
			}
		}
	}
	var b strings.Builder
	for _, f := range facts {
		g.add(f)
		fmt.Fprintf(&b, "%s(%s, %s).\n", f.pred, g.name(f.a), g.name(f.b))
	}
	ds.facts = b.String()
	ds.nfacts = len(facts)
	return ds
}

// stream generates a workload's operations in a fixed order from a seed.
// Operation i depends only on the seed and i, never on timing, and writes
// are numbered so every node a stream adds has a new name.
type stream struct {
	w      *workload
	ds     *dataset
	rng    *rand.Rand
	zipf   *rand.Zipf
	writes int
}

// streamSalt separates the request streams of one seed: the measured stream,
// the warm-up pass and the layer probes draw from different sequences.
const (
	saltMeasured = 1
	saltWarmup   = 2
	saltProbe    = 3
)

func newStream(w *workload, ds *dataset, seed, salt int64) *stream {
	rng := rand.New(rand.NewSource(seed*1000003 + salt))
	s := &stream{w: w, ds: ds, rng: rng}
	if len(ds.keys) > 1 {
		s.zipf = rand.NewZipf(rng, w.zipfS, 1, uint64(len(ds.keys)-1))
	}
	return s
}

func (s *stream) next() op {
	w := s.w
	r := s.rng.Float64()
	switch {
	case r < w.writeShare:
		return s.nextWrite()
	case r < w.writeShare+w.streamShare:
		return s.nextStream()
	}
	return s.nextQuery()
}

// boundKey picks the bound node of a query: Zipf over the hot keys, or
// uniform over all base nodes.
func (s *stream) boundKey() int {
	if s.zipf != nil {
		return s.ds.keys[s.zipf.Uint64()]
	}
	return s.rng.Intn(s.ds.g.base)
}

func (s *stream) pred() string {
	if s.w.tc {
		return "p"
	}
	return "sg"
}

func (s *stream) nextQuery() op {
	k := s.boundKey()
	return op{kind: opQuery, key: k, query: fmt.Sprintf("?- %s(%s, Y).", s.pred(), s.ds.g.name(k))}
}

func (s *stream) nextStream() op {
	limits := s.w.limits
	if len(limits) == 0 {
		limits = []int{16}
	}
	o := op{kind: opStream, key: -1, limit: limits[s.rng.Intn(len(limits))]}
	if s.rng.Float64() < s.w.freeShare {
		o.query = fmt.Sprintf("?- %s(X, Y).", s.pred())
	} else {
		o.key = s.rng.Intn(s.ds.g.base)
		o.query = fmt.Sprintf("?- %s(%s, Y).", s.pred(), s.ds.g.name(o.key))
	}
	return o
}

// nextWrite makes one small batch. On the TC graph it adds a fresh node
// w<j> inside the component of a hot key (an edge in and an edge out), so
// every cached answer of that component gains a row. On the forest it adds
// a flat pair between two existing nodes.
func (s *stream) nextWrite() op {
	g := s.ds.g
	var fs []fact
	var b strings.Builder
	if s.w.tc {
		c := g.comp[s.boundKey()]
		members := g.comps[c]
		j := s.writes
		v := g.base + j
		fs = []fact{
			{"e", members[s.rng.Intn(len(members))], v},
			{"e", v, members[s.rng.Intn(len(members))]},
		}
		fmt.Fprintf(&b, "e(%s, %s).\ne(%s, %s).\n", g.name(fs[0].a), fmt.Sprintf("w%d", j), fmt.Sprintf("w%d", j), g.name(fs[1].b))
	} else {
		fs = []fact{{"flat", s.rng.Intn(g.base), s.rng.Intn(g.base)}}
		fmt.Fprintf(&b, "flat(%s, %s).\n", g.name(fs[0].a), g.name(fs[0].b))
	}
	s.writes++
	return op{kind: opWrite, write: &batch{body: b.String(), facts: fs}}
}

// warmup is the operation list run after /readyz and counted into setup:
// every hot key once (so the cache holds all of them), or warmOps draws
// from the warm-up stream.
func warmup(w *workload, ds *dataset, seed int64) []op {
	s := newStream(w, ds, seed, saltWarmup)
	var ops []op
	if len(ds.keys) > 0 {
		for _, k := range ds.keys {
			ops = append(ops, op{kind: opQuery, key: k, query: fmt.Sprintf("?- %s(%s, Y).", s.pred(), ds.g.name(k))})
		}
		return ops
	}
	for i := 0; i < w.warmOps; i++ {
		o := s.next()
		if o.kind == opWrite {
			o = s.nextQuery()
		}
		ops = append(ops, o)
	}
	return ops
}
