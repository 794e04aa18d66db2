package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/ast"
	"repro/internal/eval"
	"repro/internal/obs"
	"repro/internal/parser"
	"repro/internal/server"
	"repro/internal/storage"
)

// Trace phases: a span's phase says which part of the traced run issued it.
const (
	phSetup  = "setup"  // bulk fact load
	phWarm   = "warmup" // the warm-up pass
	phReplay = "replay" // the workload's measured request stream
	phProbe  = "probe"  // layers the workload's stream does not reach
)

// span is one timed call into a layer's public function. Times are offsets
// from the recorder's start; parent indexes the recorder's spans (-1 for a
// request root) and req is the request the span belongs to.
type span struct {
	name       string
	phase      string
	req        int32
	parent     int32
	start, end time.Duration
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, which is how the overhead replay runs untraced.
type recorder struct {
	t0    time.Time
	spans []span
	req   int32
	phase string
}

func newRecorder() *recorder { return &recorder{t0: time.Now(), phase: phSetup} }

func (r *recorder) begin(name string, parent int32) int32 {
	if r == nil {
		return -1
	}
	if parent < 0 {
		r.req++
	}
	r.spans = append(r.spans, span{name: name, phase: r.phase, req: r.req, parent: parent, start: time.Since(r.t0)})
	return int32(len(r.spans) - 1)
}

func (r *recorder) end(id int32) {
	if r != nil {
		r.spans[id].end = time.Since(r.t0)
	}
}

func (r *recorder) rename(id int32, name string) {
	if r != nil {
		r.spans[id].name = name
	}
}

// attach copies the engine's own span tree (Opts.Tracer: classify, plan
// compile, fixpoint rounds) under parent. at is the tracer's start offset.
func (r *recorder) attach(t *obs.Tracer, at time.Duration, parent int32) {
	if r == nil || t == nil {
		return
	}
	var walk func(s *obs.Span, parent int32)
	walk = func(s *obs.Span, parent int32) {
		for _, c := range s.Children() {
			st := at + c.Start()
			r.spans = append(r.spans, span{name: "eval." + c.Name(), phase: r.phase, req: r.req, parent: parent, start: st, end: st + c.Duration()})
			walk(c, int32(len(r.spans)-1))
		}
	}
	walk(t.Root(), parent)
}

// write saves the spans as tab-separated lines: id, parent, request,
// phase, name, start and end in nanoseconds.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	fmt.Fprintln(bw, "id\tparent\treq\tphase\tname\tstart_ns\tend_ns")
	for i, s := range r.spans {
		fmt.Fprintf(bw, "%d\t%d\t%d\t%s\t%s\t%d\t%d\n", i, s.parent, s.req, s.phase, s.name, s.start, s.end)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// durations returns the sorted durations in microseconds of the spans
// named name in the given phases (all phases when none are given).
func (r *recorder) durations(name string, phases ...string) []float64 {
	var out []float64
	for _, s := range r.spans {
		if s.name == name && (len(phases) == 0 || contains(phases, s.phase)) {
			out = append(out, float64(s.end-s.start)/float64(time.Microsecond))
		}
	}
	sort.Float64s(out)
	return out
}

// gaps returns, for every request of phase that made both an a span and a
// b span, the duration of a minus that of b, in microseconds. Comparing
// the two calls request by request leaves out the host's drift between
// requests, which moves both alike.
func (r *recorder) gaps(a, b, phase string) []float64 {
	da, db := make(map[int32]time.Duration), make(map[int32]time.Duration)
	for _, s := range r.spans {
		if s.phase != phase {
			continue
		}
		switch s.name {
		case a:
			da[s.req] = s.end - s.start
		case b:
			db[s.req] = s.end - s.start
		}
	}
	var out []float64
	for req, d := range da {
		if e, ok := db[req]; ok {
			out = append(out, float64(d-e)/float64(time.Microsecond))
		}
	}
	return out
}

func contains(xs []string, x string) bool {
	for _, y := range xs {
		if x == y {
			return true
		}
	}
	return false
}

// selfTime returns, per span name, the summed self time in microseconds of
// the spans in phase: span time minus the time its children cover.
func (r *recorder) selfTime(phase string) map[string]float64 {
	kids := make(map[int32][][2]time.Duration)
	for _, s := range r.spans {
		if s.parent >= 0 && s.phase == phase {
			kids[s.parent] = append(kids[s.parent], [2]time.Duration{s.start, s.end})
		}
	}
	out := make(map[string]float64)
	for i, s := range r.spans {
		if s.phase != phase {
			continue
		}
		self := (s.end - s.start) - covered(kids[int32(i)])
		out[s.name] += float64(self) / float64(time.Microsecond)
	}
	return out
}

// covered is the length of the union of the intervals (children of a
// parallel engine's span may overlap).
func covered(iv [][2]time.Duration) time.Duration {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curS, curE time.Duration
	open := false
	for _, x := range iv {
		if !open || x[0] > curE {
			if open {
				total += curE - curS
			}
			curS, curE, open = x[0], x[1], true
		} else if x[1] > curE {
			curE = x[1]
		}
	}
	if open {
		total += curE - curS
	}
	return total
}

// pipeline replays operations in process. Each operation goes once through
// the real server.Server (the server.* spans) and once through the layers'
// own public functions on a separate planner, result cache and database
// over the same facts (the parser, plancache, resultcache, eval, maintain,
// stream and storage spans), so every layer is timed from outside.
type pipeline struct {
	ctx     context.Context
	sys     *ast.RecursiveSystem
	sysKey  string
	db      *storage.Database
	snap    *storage.Snapshot
	planner *eval.Planner
	cache   *eval.ResultCache
	reg     *obs.Registry
	srv     *server.Server // nil in the overhead replays
	rec     *recorder      // nil = untraced

	// Work counters of the layers, summed over the run.
	answers, rounds, derived, answerRows int
	visited                              int64
	writes, maintEntries, recomputed     int
	streams, streamRows, streamDerived   int
	streamRounds                         int
	decodeValues                         int
	bulkFacts                            int
}

// systemOf splits the program into its one recursive rule and exit rules.
func systemOf(prog *ast.Program) (*ast.RecursiveSystem, error) {
	var rec *ast.Rule
	var exits []ast.Rule
	for i := range prog.Rules {
		if len(prog.Rules[i].RecursiveAtoms()) > 0 {
			rec = &prog.Rules[i]
		} else {
			exits = append(exits, prog.Rules[i])
		}
	}
	if rec == nil {
		return nil, fmt.Errorf("program has no recursive rule")
	}
	return ast.NewRecursiveSystem(*rec, exits...)
}

func newPipeline(ctx context.Context, ds *dataset, cacheBytes int64, withServer bool, rec *recorder) (*pipeline, error) {
	prog, _, err := parser.ParseProgram(ds.program)
	if err != nil {
		return nil, err
	}
	sys, err := systemOf(prog)
	if err != nil {
		return nil, err
	}
	reg := obs.NewRegistry()
	p := &pipeline{
		ctx: ctx, sys: sys, sysKey: eval.SystemKey(sys),
		db: storage.NewDatabase(), planner: eval.NewPlannerWith(reg),
		cache: eval.NewResultCacheWith(reg, cacheBytes), reg: reg, rec: rec,
	}
	p.snap = p.db.Snapshot()
	if withServer {
		p.srv, err = server.New(ds.program, server.Config{Registry: obs.NewRegistry(), CacheBytes: cacheBytes})
		if err != nil {
			return nil, err
		}
	}
	if rec != nil {
		rec.phase = phSetup
	}
	if err := p.write(ds.facts); err != nil {
		return nil, err
	}
	p.bulkFacts = ds.nfacts
	return p, nil
}

func (p *pipeline) do(o op) error {
	switch o.kind {
	case opQuery:
		return p.query(o.query)
	case opStream:
		return p.stream(o.query, o.limit)
	}
	return p.write(o.write.body)
}

func (p *pipeline) opts(tr *obs.Tracer) eval.Opts {
	return eval.Opts{Metrics: p.reg, Tracer: tr, Abort: p.ctx.Done()}
}

// tracer returns an engine tracer and its start offset when recording.
func (p *pipeline) tracer() (*obs.Tracer, time.Duration) {
	if p.rec == nil {
		return nil, 0
	}
	at := time.Since(p.rec.t0)
	return obs.New("answer"), at
}

// decode turns a relation into name rows, as the server does per answer.
func (p *pipeline) decode(rel *storage.Relation, syms *storage.Symbols, parent int32) [][]string {
	sp := p.rec.begin("storage.decode", parent)
	rows := make([][]string, 0, rel.Len())
	rel.Each(func(t storage.Tuple) bool {
		row := make([]string, len(t))
		for i, v := range t {
			row[i] = syms.Name(v)
		}
		rows = append(rows, row)
		return true
	})
	p.rec.end(sp)
	p.decodeValues += rel.Len() * rel.Arity()
	return rows
}

// plan looks the query's plan up in the plan cache, naming the span by
// the outcome.
func (p *pipeline) plan(q ast.Query, parent int32) (*eval.Plan, error) {
	sp := p.rec.begin("plancache.lookup", parent)
	plan, hit, err := p.planner.PlanForEpoch(p.sys, q, p.snap.Epoch(), p.snap.DB(), p.opts(nil))
	p.rec.end(sp)
	if !hit {
		p.rec.rename(sp, "plancache.compile")
	}
	return plan, err
}

func (p *pipeline) query(qs string) error {
	root := p.rec.begin("request", -1)
	defer p.rec.end(root)
	if p.srv != nil {
		sp := p.rec.begin("server.query", root)
		res, err := p.srv.Query(p.ctx, qs, nil)
		p.rec.end(sp)
		if err != nil {
			return err
		}
		sp = p.rec.begin("server.encode_json", root)
		_, err = json.Marshal(res)
		p.rec.end(sp)
		if err != nil {
			return err
		}
	}
	sp := p.rec.begin("parser.parse_query", root)
	q, err := parser.ParseQuery(qs)
	p.rec.end(sp)
	if err != nil {
		return err
	}
	snap := p.snap
	sp = p.rec.begin("resultcache.lookup", root)
	rel, _, hit := p.cache.Lookup(p.sysKey, q.String(), snap.Epoch())
	p.rec.end(sp)
	if !hit {
		if _, err := p.plan(q, root); err != nil {
			return err
		}
		tr, at := p.tracer()
		sp = p.rec.begin("eval.answer", root)
		var st eval.Stats
		rel, st, _, err = p.cache.Answer(p.planner, p.sys, q, snap, p.opts(tr))
		p.rec.end(sp)
		if err != nil {
			return err
		}
		tr.Finish()
		p.rec.attach(tr, at, sp)
		p.answers++
		p.rounds += st.Rounds
		p.derived += st.Derived
		p.visited += st.Visited
		p.answerRows += rel.Len()
	}
	p.decode(rel, snap.Syms(), root)
	return nil
}

func (p *pipeline) stream(qs string, limit int) error {
	root := p.rec.begin("request", -1)
	defer p.rec.end(root)
	if p.srv != nil {
		sp := p.rec.begin("server.stream", root)
		_, err := p.srv.StreamQuery(p.ctx, qs, limit, nil, func([]string) bool { return true })
		p.rec.end(sp)
		if err != nil {
			return err
		}
	}
	sp := p.rec.begin("parser.parse_query", root)
	q, err := parser.ParseQuery(qs)
	p.rec.end(sp)
	if err != nil {
		return err
	}
	snap := p.snap
	sp = p.rec.begin("resultcache.lookup", root)
	rel, _, hit := p.cache.Lookup(p.sysKey, q.String(), snap.Epoch())
	p.rec.end(sp)
	if hit {
		p.decode(rel, snap.Syms(), root)
		return nil
	}
	plan, err := p.plan(q, root)
	if err != nil {
		return err
	}
	syms := snap.Syms()
	sp = p.rec.begin("stream.first_row", root)
	it := plan.Stream(q, snap.DB(), p.opts(nil), limit)
	more := it.Next()
	p.rec.end(sp)
	rest := p.rec.begin("stream.drain", root)
	rows := 0
	for ; more; more = it.Next() {
		for _, v := range it.Tuple() {
			_ = syms.Name(v)
			p.decodeValues++
		}
		rows++
	}
	it.Close()
	p.rec.end(rest)
	if err := it.Err(); err != nil {
		return err
	}
	st := it.Stats()
	p.streams++
	p.streamRows += rows
	p.streamDerived += st.Derived
	p.streamRounds += st.Rounds
	return nil
}

func (p *pipeline) write(body string) error {
	root := p.rec.begin("request", -1)
	defer p.rec.end(root)
	if p.srv != nil {
		sp := p.rec.begin("server.load_facts", root)
		_, err := p.srv.LoadFacts(body)
		p.rec.end(sp)
		if err != nil {
			return err
		}
	}
	sp := p.rec.begin("storage.scan_facts", root)
	facts, err := storage.ScanFacts(body)
	p.rec.end(sp)
	if err != nil {
		return err
	}
	sp = p.rec.begin("storage.insert", root)
	for _, f := range facts {
		if _, err := p.db.Insert(f.Pred, f.Args...); err != nil {
			return err
		}
	}
	p.rec.end(sp)
	old := p.snap
	sp = p.rec.begin("storage.snapshot", root)
	snap := p.db.Snapshot()
	p.rec.end(sp)
	sp = p.rec.begin("storage.build_indexes", root)
	for _, pred := range snap.Preds() {
		snap.Rel(pred).BuildIndexes()
	}
	p.rec.end(sp)
	sp = p.rec.begin("storage.diff", root)
	storage.DiffSnapshots(old, snap)
	p.rec.end(sp)
	sp = p.rec.begin("maintain", root)
	mres := p.cache.Maintain(old, snap, eval.MaintSpec{Planner: p.planner, Sys: p.sys, Opts: p.opts(nil)})
	p.rec.end(sp)
	p.snap = snap
	if p.rec == nil || p.rec.phase != phSetup {
		p.writes++
		p.maintEntries += mres.Maintained + mres.Recomputed
		p.recomputed += mres.Recomputed
	}
	return nil
}

// replay runs ops through the pipeline closed loop until they run out or
// the deadline passes, and returns how many ran.
func (p *pipeline) replay(next func() op, max int, deadline time.Time) (int, error) {
	n := 0
	for ; n < max && time.Now().Before(deadline); n++ {
		if err := p.do(next()); err != nil {
			return n, err
		}
	}
	return n, nil
}

// probeOps is how many operations of each kind the workload's own stream
// lacks the traced run adds after the replay.
const probeOps = 40

func runTraced(ctx context.Context, cfg *config) (*result, error) {
	w := cfg.w
	res := &result{Correct: true, Metrics: map[string]metric{}}
	put := func(name, unit string, v float64) { res.Metrics[name] = metric{Value: v, Unit: unit} }

	// Part 1: the real dlserve under the workload's fixed rate, for the
	// generator's lateness, the HTTP share and the process's own counters.
	httpDur := time.Duration(cfg.seconds * 0.3 * float64(time.Second))
	l, _, err := startWarm(ctx, cfg)
	if err != nil {
		return nil, err
	}
	before, err := l.d.scrape()
	if err != nil {
		l.close()
		return nil, err
	}
	ph := runOpenLoop(ctx, l.c.do, newStream(w, cfg.ds, cfg.seed, saltMeasured).next, w.rate, httpDur, cfg.conns)
	l.add(ph)
	after, err := l.d.scrape()
	if err != nil {
		l.close()
		return nil, err
	}
	// A p99 needs 1000 idle sends. At the slower workloads' rates the phase
	// has fewer, so the generator's timekeeping is then also checked on
	// trivial /readyz requests at 1000/s against the same process.
	lateness := ph.lateness()
	if len(lateness) < 1000 {
		pp := runOpenLoop(ctx, l.c.ping, func() op { return op{} }, 1000, 1200*time.Millisecond, cfg.conns)
		fmt.Printf("lateness probe: %d idle sends in the phase, %d more from /readyz at 1000/s\n", len(lateness), len(pp.lateness()))
		lateness = append(lateness, pp.lateness()...)
		sort.Float64s(lateness)
	}
	l.close()
	oc := checkAll(w, cfg.ds, l.samples)
	res.Attempted, res.Failed = oc.attempted, oc.failed
	cfg.dlserveProcs = oc.gomaxprocs
	fmt.Printf("http phase: rate=%g/s ops=%d valid=%v failed=%d\n", w.rate, len(ph.samples), ph.valid(), oc.failed)
	if oc.failed > 0 {
		fmt.Printf("failures: %v; first: %s\n", oc.reasons, oc.example)
		res.Correct = false
	}
	if !ph.valid() {
		fmt.Println("invalid: the fixed-rate phase's backlog grew")
		res.Correct = false
	}
	late, err := pct(lateness, 0.99, "loadgen.late_p99_us")
	if err != nil {
		return nil, err
	}
	put("loadgen.late_p99_us", "us", late)
	queries := float64(len(ph.latencies(opQuery, false)) + len(ph.latencies(opStream, false)))
	put("server.alloc_bytes_per_query", "bytes", (after.alloc-before.alloc)/queries)
	put("server.gc_per_kquery", "count", (after.numGC-before.numGC)*1000/queries)
	hits := delta(before, after, "dl_resultcache_hits_total")
	misses := delta(before, after, "dl_resultcache_misses_total")
	put("resultcache.hit_ratio", "ratio", hits/math.Max(1, hits+misses))
	put("resultcache.evictions_per_kquery", "count", delta(before, after, "dl_resultcache_evictions_total")*1000/queries)
	put("resultcache.bytes", "bytes", after.metrics["dl_resultcache_bytes"])
	ph1, pm1 := after.metrics["dl_plancache_hits_total"], after.metrics["dl_plancache_misses_total"]
	put("plancache.hit_ratio", "ratio", ph1/math.Max(1, ph1+pm1))
	e2eP50, err := pct(queryLatencies(ph, false), 0.5, "query_p50_us")
	if err != nil {
		return nil, err
	}

	// Part 2: the same seeded stream replayed in process, closed loop, one
	// client, with a span around every layer call.
	rec := newRecorder()
	p, err := newPipeline(ctx, cfg.ds, w.cacheBytes, true, rec)
	if err != nil {
		return nil, err
	}
	rec.phase = phWarm
	for _, o := range warmup(w, cfg.ds, cfg.seed) {
		if err := p.do(o); err != nil {
			return nil, err
		}
	}
	rec.phase = phReplay
	replayDur := time.Duration(cfg.seconds * 0.4 * float64(time.Second))
	n, err := p.replay(newStream(w, cfg.ds, cfg.seed, saltMeasured).next, math.MaxInt, time.Now().Add(replayDur))
	if err != nil {
		return nil, err
	}
	rec.phase = phProbe
	ps := newStream(w, cfg.ds, cfg.seed, saltProbe)
	probes := []struct {
		span string // the server call this kind of operation makes
		next func() op
	}{
		{"server.query", ps.nextQuery},
		{"server.stream", ps.nextStream},
		{"server.load_facts", ps.nextWrite},
	}
	for _, pr := range probes {
		if len(rec.durations(pr.span, phReplay)) > 0 {
			continue
		}
		if _, err := p.replay(pr.next, probeOps, time.Now().Add(time.Minute)); err != nil {
			return nil, err
		}
	}
	if err := rec.write(filepath.Join(filepath.Dir(cfg.dir), fmt.Sprintf("trace-%s-%d.tsv", w.name, cfg.seed))); err != nil {
		return nil, err
	}

	p50 := func(name string, phases ...string) float64 {
		v, _ := percentile(rec.durations(name, phases...), 0.5)
		return v
	}
	run := []string{phWarm, phReplay, phProbe}
	serverQuery := p50("server.query", run...)
	put("server.query_us", "us", serverQuery)
	put("server.http_us", "us", e2eP50-p50("server.query", phReplay))
	put("server.encode_json_us", "us", p50("server.encode_json", run...))
	put("server.stream_us", "us", p50("server.stream", run...))
	put("server.load_facts_us", "us", p50("server.load_facts", run...))
	put("parser.parse_query_us", "us", p50("parser.parse_query", run...))
	put("plancache.lookup_us", "us", p50("plancache.lookup", run...))
	put("plancache.compile_us", "us", p50("plancache.compile", run...))
	put("resultcache.lookup_us", "us", p50("resultcache.lookup", run...))
	put("eval.answer_us", "us", p50("eval.answer", run...))
	put("eval.rounds", "count", ratio(p.rounds, p.answers))
	put("eval.derived_per_answer", "count", ratio(p.derived, p.answerRows))
	put("eval.visited_per_answer", "count", float64(p.visited)/math.Max(1, float64(p.answerRows)))
	put("maintain.us_per_write", "us", p50("maintain", run...))
	put("maintain.entries_per_write", "count", ratio(p.maintEntries, p.writes))
	put("maintain.recomputed_frac", "ratio", ratio(p.recomputed, p.maintEntries))
	put("stream.first_row_us", "us", p50("stream.first_row", run...))
	put("stream.derived_per_row", "count", ratio(p.streamDerived, p.streamRows))
	put("stream.rounds", "count", ratio(p.streamRounds, p.streams))
	decodeTotal := 0.0
	for _, d := range rec.durations("storage.decode", run...) {
		decodeTotal += d
	}
	put("storage.decode_ns_per_value", "ns", decodeTotal*1000/math.Max(1, float64(p.decodeValues)))
	sum := func(name string) float64 {
		t := 0.0
		for _, d := range rec.durations(name, phSetup) {
			t += d
		}
		return t
	}
	put("storage.scan_facts_us_per_fact", "us", sum("storage.scan_facts")/float64(p.bulkFacts))
	put("storage.insert_us_per_fact", "us", sum("storage.insert")/float64(p.bulkFacts))
	put("storage.build_indexes_us", "us", sum("storage.build_indexes"))
	put("storage.snapshot_us", "us", p50("storage.snapshot", run...))
	put("storage.diff_us", "us", p50("storage.diff", run...))

	// Part 3: tracing overhead, the same replay prefix through fresh
	// untraced and traced pipelines (no server), alternating. The first
	// untraced pass sets the prefix length: what it finishes in a twentieth
	// of the run.
	overheadN := min(n, 2000)
	var off, on time.Duration
	for i := 0; i < 4; i++ {
		traced := i%2 == 1
		var r *recorder
		if traced {
			r = newRecorder()
		}
		q, err := newPipeline(ctx, cfg.ds, w.cacheBytes, false, r)
		if err != nil {
			return nil, err
		}
		if r != nil {
			r.phase = phReplay
		}
		t0 := time.Now()
		done, err := q.replay(newStream(w, cfg.ds, cfg.seed, saltMeasured).next, overheadN, t0.Add(time.Duration(cfg.seconds*0.05*float64(time.Second))))
		if err != nil {
			return nil, err
		}
		if i == 0 {
			overheadN = done
		}
		if traced {
			on += time.Since(t0)
		} else {
			off += time.Since(t0)
		}
	}
	put("obs.trace_overhead_frac", "ratio", on.Seconds()/off.Seconds()-1)

	fmt.Printf("replay: ops=%d answers=%d writes=%d streams=%d spans=%d\n", n, p.answers, p.writes, p.streams, len(rec.spans))
	if !breakdown(w, rec, res.Metrics["server.http_us"].Value) {
		res.Correct = false
	}
	return res, nil
}

func ratio(a, b int) float64 { return float64(a) / math.Max(1, float64(b)) }

// breakdown prints the replay's server-side self time per layer and checks
// that the workload's target layer dominates it.
func breakdown(w *workload, rec *recorder, httpUS float64) bool {
	self := rec.selfTime(phReplay)
	reqs := 0
	for _, s := range rec.spans {
		if s.phase == phReplay && (s.name == "server.query" || s.name == "server.stream") {
			reqs++
		}
	}
	// Read path per query: the layer calls plus the HTTP share.
	layers := map[string]float64{}
	evalTotal := 0.0
	for name, us := range self {
		switch {
		case name == "eval.answer" || len(name) > 5 && name[:5] == "eval.":
			evalTotal += us
		case name == "parser.parse_query", name == "resultcache.lookup", name == "storage.decode",
			name == "server.encode_json", name == "plancache.lookup", name == "plancache.compile",
			name == "stream.first_row", name == "stream.drain":
			layers[name] = us
		}
	}
	layers["eval.answer(+rounds)"] = evalTotal
	if reqs > 0 {
		layers["server.http"] = httpUS * float64(reqs)
	}
	total := 0.0
	for _, us := range layers {
		total += us
	}
	names := make([]string, 0, len(layers))
	for n := range layers {
		names = append(names, n)
	}
	sort.Strings(names)
	share := func(n string) float64 { return layers[n] / math.Max(1e-9, total) }
	if total > 0 {
		fmt.Println("breakdown (replay, read path self time):")
		for _, n := range names {
			fmt.Printf("  %-24s %6.1f%%\n", n, 100*share(n))
		}
	}
	ok := true
	check := func(name string, v float64, want string, pass bool) {
		fmt.Printf("check: %s=%.4f (want %s) %s\n", name, v, want, map[bool]string{true: "ok", false: "FAIL"}[pass])
		ok = ok && pass
	}
	switch w.name {
	case "hot-read":
		e := share("eval.answer(+rounds)")
		check("eval.answer share", e, "< 0.10", e < 0.10)
		dec := share("storage.decode") + share("server.encode_json") + share("server.http")
		check("decode+encode+http share", dec, "> 0.5", dec > 0.5)
	case "cold-fixpoint":
		e := share("eval.answer(+rounds)")
		check("eval.answer share", e, "> 0.5", e > 0.5)
	case "write-mix":
		parts := []string{"storage.scan_facts", "storage.insert", "storage.snapshot", "storage.build_indexes", "storage.diff"}
		m, _ := percentile(rec.durations("maintain", phReplay), 0.5)
		largest := true
		for _, pn := range parts {
			if v, _ := percentile(rec.durations(pn, phReplay), 0.5); v >= m {
				largest = false
			}
		}
		check("maintain.us_per_write is the largest write part", m, "largest", largest)
	case "stream-limit":
		// Each request runs Server.StreamQuery and then, on the layer
		// pipeline, Plan.Stream to its first row; the check compares the
		// two per request.
		fr, _ := percentile(rec.durations("stream.first_row", phReplay), 0.5)
		ss, _ := percentile(rec.durations("server.stream", phReplay), 0.5)
		gap := median(rec.gaps("server.stream", "stream.first_row", phReplay))
		fmt.Printf("stream medians: stream.first_row %.1fus, server.stream %.1fus\n", fr, ss)
		check("server.stream minus stream.first_row per request, median", gap, "> 0", gap > 0)
	}
	return ok
}
