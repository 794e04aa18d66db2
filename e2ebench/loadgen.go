package main

import (
	"context"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// minTail is the number of samples that must lie beyond a percentile for
// it to be reported: a p99 needs at least 1000 samples.
const minTail = 10

// percentile returns the nearest-rank q-quantile (0 < q < 1) of sorted and
// whether at least minTail samples lie beyond it. A percentile without that
// many samples past it is a guess about the tail, not a measurement.
func percentile(sorted []float64, q float64) (float64, bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return sorted[i], n-1-i >= minTail
}

// median of unsorted values (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// sample is one operation as the generator saw it. All times are offsets
// from the phase start. Latency is measured from due, the time the open-loop
// schedule meant to send the operation, so a stall that delays later sends
// counts against them too (no coordinated omission).
type sample struct {
	op       op
	due      time.Duration
	start    time.Duration
	firstRow time.Duration // first answer row received (0 = none)
	end      time.Duration
	idle     bool // the sender was waiting for due, so start-due is the generator's own lateness
	resp     response
}

func (s *sample) latency() time.Duration { return s.end - s.due }
func (s *sample) firstRowLatency() time.Duration {
	if s.firstRow == 0 {
		return s.latency()
	}
	return s.firstRow - s.due
}

// phase is one open-loop run at a fixed rate.
type phase struct {
	samples []sample // issued operations, in schedule order
	aborted bool     // the backlog passed maxBacklog and sending stopped
	wall    time.Duration
}

// Backlog limits: a phase is abandoned once an operation starts this late,
// and is invalid when the median start lag over its second half exceeds
// backlogLimit — the senders no longer keep up with the schedule. Past
// capacity the lag grows in proportion to the phase's length, while a
// host stall of a few tens of milliseconds delays only a small share of
// the second half, so the median separates the two.
const (
	maxBacklog   = 500 * time.Millisecond
	backlogLimit = 10 * time.Millisecond
)

// doer performs one operation and fills the sample's timing and response.
type doer func(ctx context.Context, t0 time.Time, s *sample)

// runOpenLoop sends n = rate*dur operations drawn in order from next, the
// i-th due at i/rate, from conns sending goroutines (one connection each).
// Each sender takes the next due operation, sleeps until its due time if it
// is early, and sends; a sender that is still busy at the due time sends
// late, and the lateness is part of that operation's latency.
func runOpenLoop(ctx context.Context, do doer, next func() op, rate float64, dur time.Duration, conns int) *phase {
	n := int(rate * dur.Seconds())
	ph := &phase{samples: make([]sample, n)}
	var (
		mu     sync.Mutex
		issued int
		stop   atomic.Bool
		wg     sync.WaitGroup
	)
	t0 := time.Now()
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				if issued >= n || stop.Load() || ctx.Err() != nil {
					mu.Unlock()
					return
				}
				i := issued
				issued++
				s := &ph.samples[i]
				s.op = next()
				mu.Unlock()

				s.due = time.Duration(float64(i) * float64(time.Second) / rate)
				if wait := s.due - time.Since(t0); wait > 0 {
					s.idle = true
					sleep(wait)
				}
				s.start = time.Since(t0)
				if s.start-s.due > maxBacklog {
					stop.Store(true)
				}
				do(ctx, t0, s)
			}
		}()
	}
	wg.Wait()
	ph.wall = time.Since(t0)
	ph.samples = ph.samples[:issued]
	ph.aborted = stop.Load() || issued < n
	return ph
}

// sleep waits d with microsecond precision. The runtime's timers round a
// wait up to whole milliseconds on Linux, which would bias every due-time
// latency, so only the part of a long wait beyond the last two
// milliseconds goes to time.Sleep. The rest blocks the thread in
// nanosleep(2) until spinWait before the end, and the sender spins through
// that last stretch: a thread woken from an idle virtual CPU starts tens of
// microseconds late, and by a different amount whenever the host's load
// changes.
func sleep(d time.Duration) {
	end := time.Now().Add(d)
	if d > 2*time.Millisecond {
		time.Sleep(d - 2*time.Millisecond)
	}
	if rest := time.Until(end) - spinWait; rest > 0 {
		ts := syscall.NsecToTimespec(int64(rest))
		for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
		}
	}
	for time.Now().Before(end) {
	}
}

// spinWait is the end of each wait that the sender spends spinning.
const spinWait = 200 * time.Microsecond

// valid reports whether the generator kept to the schedule: it never
// abandoned the phase and the backlog at its end was not growing.
func (ph *phase) valid() bool {
	if ph.aborted || len(ph.samples) == 0 {
		return false
	}
	tail := ph.samples[len(ph.samples)/2:]
	lags := make([]float64, len(tail))
	for i := range tail {
		lags[i] = float64(tail[i].start - tail[i].due)
	}
	return time.Duration(median(lags)) <= backlogLimit
}

// latencies returns the sorted latencies in microseconds of the phase's
// operations of kind k, from due time to the last byte (or to the first
// answer row when firstRow is set).
func (ph *phase) latencies(k opKind, firstRow bool) []float64 {
	var out []float64
	for i := range ph.samples {
		s := &ph.samples[i]
		if s.op.kind != k {
			continue
		}
		d := s.latency()
		if firstRow {
			d = s.firstRowLatency()
		}
		out = append(out, float64(d)/float64(time.Microsecond))
	}
	sort.Float64s(out)
	return out
}

// lateness returns the sorted generator lateness in microseconds: start
// minus due over the operations whose sender was idle at the due time.
func (ph *phase) lateness() []float64 {
	var out []float64
	for i := range ph.samples {
		if s := &ph.samples[i]; s.idle {
			out = append(out, float64(s.start-s.due)/float64(time.Microsecond))
		}
	}
	sort.Float64s(out)
	return out
}

// runClosedLoop keeps conns senders busy for dur: each sends the next
// operation as soon as its previous reply has fully arrived. An operation's
// due time is the moment its sender took it, so there is no backlog to
// grow; the phase measures the most the generator's connections can get
// through.
func runClosedLoop(ctx context.Context, do doer, next func() op, dur time.Duration, conns int) *phase {
	ph := &phase{}
	var mu sync.Mutex
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				mu.Lock()
				if time.Since(t0) >= dur {
					mu.Unlock()
					return
				}
				s := &sample{op: next()}
				mu.Unlock()
				s.due = time.Since(t0)
				s.start = s.due
				do(ctx, t0, s)
				mu.Lock()
				ph.samples = append(ph.samples, *s)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	ph.wall = time.Since(t0)
	return ph
}

// throughput cuts a closed-loop phase into windows equal spans of its
// nominal duration and returns the median of the windows' completion
// rates, in operations per second. A stall of the host then lowers one
// window, not the reported rate.
func (ph *phase) throughput(dur time.Duration, windows int) float64 {
	counts := make([]float64, windows)
	span := dur / time.Duration(windows)
	for i := range ph.samples {
		if w := int(ph.samples[i].end / span); w < windows {
			counts[w]++
		}
	}
	for i := range counts {
		counts[i] /= span.Seconds()
	}
	return median(counts)
}
