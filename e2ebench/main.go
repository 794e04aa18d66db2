// Command e2ebench is the end-to-end benchmark of dlserve. It generates a
// workload's program, facts and request stream from a seed, runs a dlserve
// binary built from the same checkout, drives it over loopback HTTP with an
// open-loop generator, checks every answer against reference answers it
// computes itself, and prints the workload's metrics. With -trace 1 it
// instead replays the same request stream in process, timing the calls into
// each layer's public functions, and prints per-layer metrics.
//
// Run it through run.sh from the repository root, which builds both
// binaries:
//
//	bash e2ebench/run.sh --workload hot-read --seed 1 --seconds 25 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The command exits nonzero when any
// answer is wrong, a workload sanity check fails, or the fixed-rate phase
// could not keep to its schedule.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// setups is how many times a run starts dlserve and warms it; setup_s is
// the median. The last instance serves the measured phases.
const setups = 7

type config struct {
	w       *workload
	ds      *dataset
	seed    int64
	seconds float64
	conns   int
	bin     string
	args    []string
	dir     string

	// dlserveProcs is dlserve's GOMAXPROCS as its replies report it.
	dlserveProcs int
	// stealFrac is the share of CPU time the hypervisor took from this
	// machine during the run (0 where /proc/stat has no steal column).
	stealFrac float64
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	// The generator keeps every reply body until the phase is checked; a
	// lazier collector keeps its own pauses out of the latencies.
	debug.SetGCPercent(400)
	// Senders block their threads in nanosleep; spare Ps keep the reading
	// goroutines running meanwhile.
	runtime.GOMAXPROCS(max(runtime.GOMAXPROCS(0), 4))
	os.Exit(run())
}

func run() int {
	var (
		name    = flag.String("workload", "", "workload: hot-read, cold-fixpoint, write-mix or stream-limit")
		seed    = flag.Int64("seed", 1, "seed of the generated facts and request stream")
		seconds = flag.Float64("seconds", 25, "measured seconds per run")
		trace   = flag.Int("trace", 0, "1 = traced in-process replay reporting per-layer metrics")
		bin     = flag.String("dlserve", "", "dlserve binary built from the checkout under test")
		workdir = flag.String("workdir", ".bench_build", "scratch directory inside the checkout")
		root    = flag.String("root", ".", "checkout root (for the source digest)")
	)
	flag.Parse()
	w, err := workloadByName(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 2
	}
	if *bin == "" || *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "e2ebench: -dlserve and a positive -seconds are required")
		return 2
	}
	dir, err := os.MkdirTemp(*workdir, "run-"+w.name+"-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	ds := generate(w, *seed)
	progPath, factsPath := filepath.Join(dir, "program.dl"), filepath.Join(dir, "facts.dl")
	if err := os.WriteFile(progPath, []byte(ds.program), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	if err := os.WriteFile(factsPath, []byte(ds.facts), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	args := []string{"-program", progPath, "-facts", factsPath, "-addr", "127.0.0.1:0"}
	if w.cacheBytes > 0 {
		args = append(args, "-cache-bytes", strconv.FormatInt(w.cacheBytes, 10))
	}
	cfg := &config{w: w, ds: ds, seed: *seed, seconds: *seconds, conns: min(2, runtime.NumCPU()), bin: *bin, args: args, dir: dir}

	fmt.Printf("e2ebench: workload=%s seed=%d seconds=%g trace=%d\n", w.name, *seed, *seconds, *trace)
	steal0, total0 := cpuSteal()
	ctx := context.Background()
	var res *result
	if *trace == 1 {
		res, err = runTraced(ctx, cfg)
	} else {
		res, err = runEndToEnd(ctx, cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	steal1, total1 := cpuSteal()
	cfg.stealFrac = (steal1 - steal0) / math.Max(1, total1-total0)
	printConditions(cfg, *root, *trace)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("metric %-32s %14.4f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	fmt.Println(string(out))
	if !res.Correct {
		return 1
	}
	return 0
}

// printConditions records what a later comparison must hold equal.
func printConditions(cfg *config, root string, trace int) {
	w := cfg.w
	cond := map[string]any{
		"commit":          commitOf(root),
		"source_sha256":   sourceDigest(root),
		"go_version":      runtime.Version(),
		"nproc":           runtime.NumCPU(),
		"connections":     cfg.conns,
		"seed":            cfg.seed,
		"seconds":         cfg.seconds,
		"trace":           trace,
		"offered_rate":    w.rate,
		"capacity_conns":  cfg.conns,
		"latency_limit":   w.limitUS,
		"dlserve_flags":   strings.Join(cfg.args[4:], " "),
		"facts":           cfg.ds.nfacts,
		"nodes":           cfg.ds.g.base,
		"hot_keys":        len(cfg.ds.keys),
		"answer_rows_p50": answerRowsP50(cfg),
		"write_share":     w.writeShare,
		"stream_share":    w.streamShare,
		"cache_bytes":     w.cacheBytes,
		"dlserve_gomaxp":  cfg.dlserveProcs,
		"loadgen_gomaxp":  runtime.GOMAXPROCS(0),
		"host_steal_frac": cfg.stealFrac,
	}
	b, _ := json.Marshal(cond)
	fmt.Println("conditions:", string(b))
}

// answerRowsP50 is the median reference answer size of the bound queries
// among the measured stream's first thousand operations.
func answerRowsP50(cfg *config) float64 {
	ref := newReference(cfg.ds.g, cfg.w.tc)
	s := newStream(cfg.w, cfg.ds, cfg.seed, saltMeasured)
	var rows []float64
	for i := 0; i < 1000; i++ {
		if o := s.next(); o.kind != opWrite && o.key >= 0 {
			rows = append(rows, float64(len(ref.bound(o.key).set)))
		}
	}
	return median(rows)
}

// cpuSteal returns the steal and total jiffies of the aggregate cpu line
// of /proc/stat (zeros when it cannot be read).
func cpuSteal() (steal, total float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, x := range f[1:] {
		v, _ := strconv.ParseFloat(x, 64)
		if i < 8 { // guest time is already counted in user time
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// commitOf reads the checked-out commit from .git when there is one.
func commitOf(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref := strings.TrimSpace(string(head))
	if !strings.HasPrefix(ref, "ref: ") {
		return ref
	}
	b, err := os.ReadFile(filepath.Join(root, ".git", strings.TrimPrefix(ref, "ref: ")))
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}

// sourceDigest hashes every Go source and go.mod under root, so a result
// identifies the code it measured even when the checkout is not a git
// repository.
func sourceDigest(root string) string {
	h := sha256.New()
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return nil
		}
		rel, _ := filepath.Rel(root, path)
		fmt.Fprintf(h, "%s %d\n", rel, len(b))
		h.Write(b)
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// lifetime is one dlserve process with the operations it answered.
type lifetime struct {
	d       *dlserve
	c       *client
	samples []*sample
}

func (l *lifetime) add(ph *phase) {
	for i := range ph.samples {
		l.samples = append(l.samples, &ph.samples[i])
	}
}

func (l *lifetime) close() {
	l.c.close()
	l.d.stop()
}

// startWarm starts dlserve and runs the warm-up pass closed loop with one
// client; it returns the set-up time, exec to the end of the warm-up.
func startWarm(ctx context.Context, cfg *config) (*lifetime, time.Duration, error) {
	t0 := time.Now()
	d, _, err := startDlserve(ctx, cfg.bin, cfg.args)
	if err != nil {
		return nil, 0, err
	}
	l := &lifetime{d: d, c: newClient(d.addr, cfg.conns)}
	for _, o := range warmup(cfg.w, cfg.ds, cfg.seed) {
		s := &sample{op: o}
		s.due = time.Since(t0)
		s.start = s.due
		l.c.do(ctx, t0, s)
		l.samples = append(l.samples, s)
	}
	return l, time.Since(t0), nil
}

// pct returns the q-percentile of sorted values, failing when the tail has
// too few samples beyond it.
func pct(xs []float64, q float64, what string) (float64, error) {
	v, ok := percentile(xs, q)
	if !ok {
		return 0, fmt.Errorf("%s: %d samples are too few for p%g (need %d beyond it)", what, len(xs), q*100, minTail)
	}
	return v, nil
}

// queryLatencies returns the sorted latencies of the phase's query and
// streamed-query operations.
func queryLatencies(ph *phase, firstRow bool) []float64 {
	xs := append(ph.latencies(opQuery, firstRow), ph.latencies(opStream, firstRow)...)
	sort.Float64s(xs)
	return xs
}

func runEndToEnd(ctx context.Context, cfg *config) (*result, error) {
	w := cfg.w
	var setupTimes []float64
	var outcomes []*outcome
	start := func() (*lifetime, error) {
		l, dt, err := startWarm(ctx, cfg)
		if err != nil {
			return nil, err
		}
		setupTimes = append(setupTimes, dt.Seconds())
		return l, nil
	}
	finish := func(l *lifetime) {
		l.close()
		outcomes = append(outcomes, checkAll(w, cfg.ds, l.samples))
	}
	for i := 0; i < setups-1; i++ {
		l, err := start()
		if err != nil {
			return nil, err
		}
		finish(l)
	}

	// The last instance serves the measured phases: the fixed-rate phase
	// for the latency metrics, the peak RSS after this fixed number of
	// operations, and last the closed-loop capacity phase.
	l, err := start()
	if err != nil {
		return nil, err
	}
	defer func() {
		if l != nil {
			l.close()
		}
	}()
	ms := newStream(w, cfg.ds, cfg.seed, saltMeasured)
	before, err := l.d.scrape()
	if err != nil {
		return nil, err
	}
	fixed := runOpenLoop(ctx, l.c.do, ms.next, w.rate, time.Duration(cfg.seconds*fixedShare*float64(time.Second)), cfg.conns)
	l.add(fixed)
	after, err := l.d.scrape()
	if err != nil {
		return nil, err
	}
	fmt.Printf("fixed: rate=%g/s ops=%d wall=%.2fs valid=%v query p50/p90/p99/max=%s us, generator lateness %s us\n", w.rate, len(fixed.samples), fixed.wall.Seconds(), fixed.valid(), quantiles(queryLatencies(fixed, false)), quantiles(fixed.lateness()))
	rss, err := l.d.peakRSSMB()
	if err != nil {
		return nil, err
	}
	capDur := time.Duration(cfg.seconds * capacityShare * float64(time.Second))
	capPh := runClosedLoop(ctx, l.c.do, ms.next, capDur, cfg.conns)
	l.add(capPh)
	maxQPS := capPh.throughput(capDur, capacityWindows)
	capP90, _ := percentile(queryLatencies(capPh, false), 0.9)
	fmt.Printf("capacity: conns=%d ops=%d wall=%.2fs max_qps=%.1f (median of %d windows) query p50/p90/p99/max=%s us\n", cfg.conns, len(capPh.samples), capPh.wall.Seconds(), maxQPS, capacityWindows, quantiles(queryLatencies(capPh, false)))
	finish(l)
	l = nil
	oc := outcomes[len(outcomes)-1]
	fmt.Printf("setup: %s s (median of %d)\n", fmtList(setupTimes), setups)

	total := mergeOutcomes(outcomes)
	cfg.dlserveProcs = total.gomaxprocs
	correct := total.failed == 0
	fmt.Printf("failed_frac: %.6f (%d of %d operations)\n", float64(total.failed)/float64(total.attempted), total.failed, total.attempted)
	if total.failed > 0 {
		fmt.Printf("failures: %v; first: %s\n", total.reasons, total.example)
	}
	if !fixed.valid() {
		fmt.Println("invalid: the fixed-rate phase's backlog grew; its latency numbers are not measurements")
		correct = false
	}
	if !sanity(w, before, after, oc) {
		correct = false
	}
	// max_qps is printed, not returned as a metric: on a shared 2-CPU host
	// it follows the host's CPU steal more than the program (see README).
	fmt.Printf("report max_qps %.1f 1/s (capacity p90 %.0fus, limit %gus, within=%v; not gated)\n", maxQPS, capP90, w.limitUS, capP90 <= w.limitUS)

	res := &result{Correct: correct, Attempted: total.attempted, Failed: total.failed, Metrics: map[string]metric{}}
	put := func(name, unit string, v float64) { res.Metrics[name] = metric{Value: v, Unit: unit} }
	put("setup_s", "s", median(setupTimes))
	put("peak_rss_mb", "MiB", rss)
	isQuery := func(s *sample) bool { return s.op.kind != opWrite }
	isWrite := func(s *sample) bool { return s.op.kind == opWrite }
	for _, m := range []struct {
		name     string
		firstRow bool
	}{
		{"query_p50_us", false},
		{"first_row_p50_us", true},
	} {
		v, err := windowed(fixed, isQuery, m.firstRow, 0.5, m.name)
		if err != nil {
			return nil, err
		}
		put(m.name, "us", v)
	}
	// Tails and write latencies are printed, not returned as metrics: on a
	// shared 2-CPU host they follow the host's CPU steal more than the
	// program (see README).
	for _, m := range []struct {
		name string
		sel  func(*sample) bool
		q    float64
	}{
		{"query_p99_us", isQuery, 0.99},
		{"write_p50_us", isWrite, 0.5},
		{"write_p90_us", isWrite, 0.9},
	} {
		if v, err := windowed(fixed, m.sel, false, m.q, m.name); err == nil {
			fmt.Printf("report %s %.1f us (not gated)\n", m.name, v)
		} else {
			fmt.Printf("report %s n/a: %v\n", m.name, err)
		}
	}
	return res, nil
}

// maxWindows caps how many consecutive windows a phase is cut into.
const maxWindows = 5

// windowed cuts the selected operations of a phase, in schedule order, into
// as many consecutive windows (at most maxWindows) as leave every window
// minTail samples beyond its q-percentile, and returns the median of the
// windows' percentiles in microseconds. One burst of host noise then moves
// one window, not the reported value.
func windowed(ph *phase, sel func(*sample) bool, firstRow bool, q float64, what string) (float64, error) {
	var xs []float64
	for i := range ph.samples {
		s := &ph.samples[i]
		if !sel(s) {
			continue
		}
		d := s.latency()
		if firstRow {
			d = s.firstRowLatency()
		}
		xs = append(xs, float64(d)/float64(time.Microsecond))
	}
	need := int(math.Ceil(minTail/(1-q))) + 1
	k := min(maxWindows, len(xs)/need)
	if k == 0 {
		return 0, fmt.Errorf("%s: %d samples are too few for p%g (need %d beyond it)", what, len(xs), q*100, minTail)
	}
	var per []float64
	for i := 0; i < k; i++ {
		win := append([]float64(nil), xs[i*len(xs)/k:(i+1)*len(xs)/k]...)
		sort.Float64s(win)
		v, ok := percentile(win, q)
		if !ok {
			return 0, fmt.Errorf("%s: window %d has %d samples, too few for p%g", what, i, len(win), q*100)
		}
		per = append(per, v)
	}
	return median(per), nil
}

// Shares of --seconds and the window count of the measured phases.
const (
	fixedShare      = 0.75
	capacityShare   = 0.1
	capacityWindows = 5
)

// sanity prints the checks that the workload still exercises its layer and
// reports whether all hold.
func sanity(w *workload, before, after *scrape, oc *outcome) bool {
	hits := delta(before, after, "dl_resultcache_hits_total")
	misses := delta(before, after, "dl_resultcache_misses_total")
	ratio := hits / math.Max(1, hits+misses)
	ok := true
	check := func(name string, v float64, want string, pass bool) {
		fmt.Printf("check: %s=%.4f (want %s) %s\n", name, v, want, map[bool]string{true: "ok", false: "FAIL"}[pass])
		ok = ok && pass
	}
	switch w.name {
	case "hot-read":
		check("resultcache.hit_ratio", ratio, ">= 0.99", ratio >= 0.99)
	case "cold-fixpoint":
		check("resultcache.hit_ratio", ratio, "<= 0.5", ratio <= 0.5)
	case "write-mix":
		epw := float64(oc.maintEntries) / math.Max(1, float64(oc.writes))
		check("maintain.entries_per_write", epw, "> 0", epw > 0)
	case "stream-limit":
		frac := float64(oc.truncated+oc.completeStream) / math.Max(1, float64(oc.streams))
		check("stream.truncated_or_complete_frac", frac, "== 1", oc.streams > 0 && frac == 1)
	}
	fmt.Printf("strategies: %v\n", oc.strategies)
	return ok
}

func mergeOutcomes(os []*outcome) *outcome {
	t := &outcome{reasons: make(map[string]int)}
	for _, o := range os {
		t.attempted += o.attempted
		t.failed += o.failed
		for r, n := range o.reasons {
			t.reasons[r] += n
		}
		if t.example == "" {
			t.example = o.example
		}
		if o.gomaxprocs > 0 {
			t.gomaxprocs = o.gomaxprocs
		}
	}
	return t
}

// quantiles formats p50, p90, p99 and the maximum of sorted values.
func quantiles(xs []float64) string {
	if len(xs) == 0 {
		return "-"
	}
	var parts []string
	for _, q := range []float64{0.5, 0.9, 0.99} {
		v, _ := percentile(xs, q)
		parts = append(parts, strconv.FormatFloat(v, 'f', 0, 64))
	}
	return strings.Join(append(parts, strconv.FormatFloat(xs[len(xs)-1], 'f', 0, 64)), "/")
}

func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'f', 4, 64)
	}
	return strings.Join(parts, " ")
}
