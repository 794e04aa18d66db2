package storage

import (
	"fmt"
	"sync"
	"testing"
)

// TestSnapshotImmutability: writes after Snapshot never change what the
// snapshot sees, and the writer's view keeps advancing.
func TestSnapshotImmutability(t *testing.T) {
	db := NewDatabase()
	for i := 0; i < 5; i++ {
		if _, err := db.Insert("a", fmt.Sprintf("n%d", i), fmt.Sprintf("n%d", i+1)); err != nil {
			t.Fatal(err)
		}
	}
	snap := db.Snapshot()
	if snap.Epoch() != 1 {
		t.Fatalf("first epoch = %d, want 1", snap.Epoch())
	}
	before := snap.Rel("a").Len()

	// Post-snapshot writes COW the relation: the snapshot view must not move.
	for i := 5; i < 50; i++ {
		if _, err := db.Insert("a", fmt.Sprintf("n%d", i), fmt.Sprintf("n%d", i+1)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.Insert("fresh", "x", "y"); err != nil {
		t.Fatal(err)
	}
	if got := snap.Rel("a").Len(); got != before {
		t.Errorf("snapshot relation grew from %d to %d after writes", before, got)
	}
	if snap.Rel("fresh") != nil {
		t.Error("snapshot sees a relation created after it was taken")
	}
	if got := db.Rel("a").Len(); got != 50 {
		t.Errorf("writer view has %d tuples, want 50", got)
	}

	// The snapshot's tuples are still probeable through its indexes.
	r := snap.Rel("a")
	v0, ok := snap.Syms().Lookup("n0")
	if !ok {
		t.Fatal("n0 missing from the shared symbol table")
	}
	if n := len(r.LookupCol(0, v0)); n != 1 {
		t.Errorf("snapshot index lookup found %d postings, want 1", n)
	}
}

// TestSnapshotEpochStability: snapshots of a quiet database share the epoch
// (and the object); any write dirties it and the next snapshot advances.
func TestSnapshotEpochStability(t *testing.T) {
	db := NewDatabase()
	if _, err := db.Insert("a", "x", "y"); err != nil {
		t.Fatal(err)
	}
	s1 := db.Snapshot()
	s2 := db.Snapshot()
	if s1 != s2 || s1.Epoch() != s2.Epoch() {
		t.Errorf("quiet database yielded distinct snapshots (%d vs %d)", s1.Epoch(), s2.Epoch())
	}
	if _, err := db.Insert("a", "y", "z"); err != nil {
		t.Fatal(err)
	}
	s3 := db.Snapshot()
	if s3.Epoch() != s1.Epoch()+1 {
		t.Errorf("post-write epoch = %d, want %d", s3.Epoch(), s1.Epoch()+1)
	}
	if db.Epoch() != s3.Epoch() {
		t.Errorf("db.Epoch() = %d, want %d", db.Epoch(), s3.Epoch())
	}
}

// TestSnapshotCOWSharesArena: the copy-on-write clone must share the frozen
// arena blocks (no tuple copying) — the clone's first block is the same
// backing array as the original's.
func TestSnapshotCOWSharesArena(t *testing.T) {
	db := NewDatabase()
	for i := 0; i < 100; i++ {
		if _, err := db.Insert("a", fmt.Sprintf("n%d", i), "z"); err != nil {
			t.Fatal(err)
		}
	}
	snap := db.Snapshot()
	frozen := snap.Rel("a")
	if _, err := db.Insert("a", "new", "z"); err != nil {
		t.Fatal(err)
	}
	writer := db.Rel("a")
	if writer == frozen {
		t.Fatal("write did not clone the frozen relation header")
	}
	if frozen.Len() != 100 || writer.Len() != 101 {
		t.Fatalf("len split = %d/%d, want 100/101", frozen.Len(), writer.Len())
	}
	// Same backing tuple storage: tuple 0 of both views aliases one array.
	ft, wt := frozen.At(0), writer.At(0)
	if &ft[0] != &wt[0] {
		t.Error("COW clone copied the arena (tuple 0 has distinct backing)")
	}
}

// TestCOWCloneFoldsLargeOverflow: a post-snapshot write clones the column
// indexes. A small overflow is copied as is; one past cloneRebuildExtra is
// folded into a fresh CSR build, and every column lookup stays exact.
func TestCOWCloneFoldsLargeOverflow(t *testing.T) {
	for _, extra := range []int{10, 200} {
		db := NewDatabase()
		for i := 0; i < 1000; i++ {
			if _, err := db.Insert("a", fmt.Sprintf("n%d", i), fmt.Sprintf("m%d", i%37)); err != nil {
				t.Fatal(err)
			}
		}
		db.Snapshot()
		for i := 0; i < extra; i++ {
			if _, err := db.Insert("a", fmt.Sprintf("x%d", i), fmt.Sprintf("m%d", i%37)); err != nil {
				t.Fatal(err)
			}
		}
		before := db.Snapshot().Rel("a")
		if _, err := db.Insert("a", "last", "m0"); err != nil {
			t.Fatal(err)
		}
		after := db.Rel("a")
		folded := extra > cloneRebuildExtra(before.colIdx[1].built)
		if got := after.colIdx[1].nextra == 1; got != folded {
			t.Errorf("overflow %d: clone overflow %d, want folded=%v", extra, after.colIdx[1].nextra, folded)
		}
		for i := 0; i < 37; i++ {
			v, _ := db.Syms.Lookup(fmt.Sprintf("m%d", i))
			want := 0
			before.EachCol(1, v, func(Tuple) bool { want++; return true })
			if i == 0 {
				want++
			}
			got := 0
			after.EachCol(1, v, func(Tuple) bool { got++; return true })
			if got != want {
				t.Errorf("overflow %d: m%d has %d tuples after the clone, want %d", extra, i, got, want)
			}
		}
	}
}

// TestFrozenRelationWritePanics is the Reset regression test: recycling a
// frozen relation's arena blocks while snapshot readers alias them would
// corrupt those readers, so Reset (and Insert) on a frozen header must
// refuse loudly.
func TestFrozenRelationWritePanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s on a frozen relation did not panic", name)
			}
		}()
		f()
	}
	db := NewDatabase()
	if _, err := db.Insert("a", "x", "y"); err != nil {
		t.Fatal(err)
	}
	db.Snapshot()
	r := db.Rel("a") // frozen by the snapshot
	if !r.Frozen() {
		t.Fatal("snapshot did not freeze the relation")
	}
	mustPanic("Reset", func() { r.Reset(2) })
	mustPanic("Insert", func() { r.Insert(Tuple{0, 0}) })

	// Writing through the database is the sanctioned path: it clones first.
	if _, err := db.Insert("a", "y", "z"); err != nil {
		t.Fatal(err)
	}
	if db.Rel("a").Frozen() {
		t.Error("COW clone is frozen; writer would be stuck")
	}
	// And the writer's fresh header may Reset freely again.
	db.Rel("a").Reset(2)
}

// TestSnapshotConcurrentReaders races one writer (inserting and snapshotting)
// against many readers probing pinned snapshots. Run under -race by
// `make race`; correctness assertion: every reader sees exactly the tuple
// count its snapshot pinned.
func TestSnapshotConcurrentReaders(t *testing.T) {
	db := NewDatabase()
	var mu sync.Mutex // writer lock: Snapshot/Insert need exclusive access
	for i := 0; i < 10; i++ {
		if _, err := db.Insert("a", fmt.Sprintf("n%d", i), "z"); err != nil {
			t.Fatal(err)
		}
	}
	take := func() (*Snapshot, int) {
		mu.Lock()
		defer mu.Unlock()
		s := db.Snapshot()
		return s, s.Rel("a").Len()
	}

	const readers = 8
	const rounds = 200
	stop := make(chan struct{})
	writerDone := make(chan struct{})
	// Writer: keep inserting and re-snapshotting until the readers finish.
	go func() {
		defer close(writerDone)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			mu.Lock()
			if _, err := db.Insert("a", fmt.Sprintf("w%d", i), "z"); err != nil {
				t.Error(err)
				mu.Unlock()
				return
			}
			db.Snapshot()
			mu.Unlock()
		}
	}()
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				snap, want := take()
				rel := snap.Rel("a")
				if got := rel.Len(); got != want {
					t.Errorf("reader %d: pinned len moved %d -> %d", r, want, got)
					return
				}
				// Interning through the shared symbol table while the writer
				// interns too must be safe.
				v := snap.Syms().Intern(fmt.Sprintf("n%d", i%10))
				if n := len(rel.LookupCol(0, v)); n > 1 {
					t.Errorf("reader %d: %d postings for one key", r, n)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	close(stop)
	<-writerDone
}
