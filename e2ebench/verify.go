package main

import (
	"fmt"
	"sort"
)

// outcome is the checked result of every operation one dlserve lifetime
// answered.
type outcome struct {
	attempted, failed int
	reasons           map[string]int // failure reason -> count
	example           string         // first failure, for the report

	strategies     map[string]int // plan strategy -> query replies
	gomaxprocs     int
	writes         int
	maintEntries   int // maintained + recomputed entries over all writes
	streams        int
	truncated      int // streamed replies cut at their limit
	completeStream int // streamed replies that ended with the full answer set
}

func (o *outcome) fail(reason, detail string) {
	o.failed++
	o.reasons[reason]++
	if o.example == "" {
		o.example = reason + ": " + detail
	}
}

// checkAll verifies every reply against reference answers computed from
// the generated facts. Replies are checked in epoch order; before a reply of
// epoch E is checked, every write acknowledged with an epoch <= E is
// replayed into the reference, so write-mix reads are compared with exactly
// the database state they report.
func checkAll(w *workload, ds *dataset, samples []*sample) *outcome {
	o := &outcome{reasons: make(map[string]int), strategies: make(map[string]int)}
	type read struct {
		s     *sample
		epoch uint64
		q     *queryReply
		st    *streamReply
	}
	type write struct {
		epoch uint64
		b     *batch
	}
	var reads []read
	var writes []write
	for _, s := range samples {
		o.attempted++
		if s.resp.err != nil {
			o.fail("transport", s.resp.err.Error())
			continue
		}
		if s.resp.status != 200 {
			o.fail(fmt.Sprintf("http %d", s.resp.status), string(s.resp.body))
			continue
		}
		switch s.op.kind {
		case opQuery:
			q, err := parseQuery(s.resp.body)
			if err != nil {
				o.fail("bad body", err.Error())
				continue
			}
			o.strategies[q.Strategy]++
			o.gomaxprocs = q.GoMaxProcs
			reads = append(reads, read{s: s, epoch: q.Epoch, q: q})
		case opStream:
			st, err := parseStream(s.resp.body)
			if err != nil {
				o.fail("bad body", err.Error())
				continue
			}
			o.strategies[st.Strategy]++
			reads = append(reads, read{s: s, epoch: st.Epoch, st: st})
		case opWrite:
			wr, err := parseWrite(s.resp.body)
			if err != nil {
				o.fail("bad body", err.Error())
				continue
			}
			o.writes++
			o.maintEntries += wr.Maintained + wr.Recomputed
			writes = append(writes, write{epoch: wr.Epoch, b: s.op.write})
		}
	}
	sort.SliceStable(writes, func(i, j int) bool { return writes[i].epoch < writes[j].epoch })
	sort.SliceStable(reads, func(i, j int) bool { return reads[i].epoch < reads[j].epoch })
	for i := 1; i < len(writes); i++ {
		if writes[i].epoch == writes[i-1].epoch {
			o.fail("epoch", fmt.Sprintf("two writes acknowledged with epoch %d", writes[i].epoch))
		}
	}
	ref := newReference(ds.g.clone(), w.tc)
	wi := 0
	for _, r := range reads {
		for wi < len(writes) && writes[wi].epoch <= r.epoch {
			ref.apply(writes[wi].b)
			wi++
		}
		if r.q != nil {
			checkQuery(o, ref, r.s.op, r.q)
		} else {
			checkStream(o, ref, r.s.op, r.st)
		}
	}
	return o
}

func checkQuery(o *outcome, ref *reference, op op, q *queryReply) {
	want := ref.bound(op.key)
	switch {
	case len(q.Answers) != len(want.set) || q.Count != len(q.Answers):
		o.fail("wrong answer", fmt.Sprintf("%s: %d rows (count %d), reference has %d", op.query, len(q.Answers), q.Count, len(want.set)))
	case rowHash(q.Answers) != want.hash:
		o.fail("wrong answer", fmt.Sprintf("%s: row set differs from the reference", op.query))
	}
}

// checkStream checks a limited stream: every row is a reference answer,
// no row repeats, and the stream either stopped at its limit (truncated) or
// delivered the complete answer set.
func checkStream(o *outcome, ref *reference, op op, st *streamReply) {
	o.streams++
	if !st.Done || st.Error != "" || st.Count != len(st.Rows) {
		o.fail("stream", fmt.Sprintf("%s: done=%v error=%q count=%d rows=%d", op.query, st.Done, st.Error, st.Count, len(st.Rows)))
		return
	}
	seen := make(map[[2]int]bool, len(st.Rows))
	for _, row := range st.Rows {
		if len(row) != 2 {
			o.fail("wrong answer", fmt.Sprintf("%s: row %v has arity %d", op.query, row, len(row)))
			return
		}
		x, okx := ref.g.id(row[0])
		y, oky := ref.g.id(row[1])
		if !okx || !oky || (op.key >= 0 && x != op.key) || !ref.bound(x).set[y] || seen[[2]int{x, y}] {
			o.fail("wrong answer", fmt.Sprintf("%s: row %v is not a new reference answer", op.query, row))
			return
		}
		seen[[2]int{x, y}] = true
	}
	if st.Truncated {
		if len(st.Rows) != op.limit {
			o.fail("stream", fmt.Sprintf("%s: truncated after %d rows, limit %d", op.query, len(st.Rows), op.limit))
			return
		}
		o.truncated++
		return
	}
	total := 0
	if op.key >= 0 {
		total = len(ref.bound(op.key).set)
	} else {
		for v := 0; v < ref.g.base+ref.g.added; v++ {
			total += len(ref.bound(v).set)
		}
	}
	if len(st.Rows) != total {
		o.fail("wrong answer", fmt.Sprintf("%s: untruncated stream has %d rows, reference has %d", op.query, len(st.Rows), total))
		return
	}
	o.completeStream++
}
