package storage

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"simdb/internal/adm"
)

// BenchmarkRangeRead times the merged range reader in isolation, on the
// shapes the engine reads through it: a full scan of one warm 20 000-row
// component (row pages, columnar groups, columnar groups under a
// three-field projection, and the same under a row filter that keeps one
// row in a thousand — what a scan-plan selection does per partition),
// the same scan over three components and two memtable generations with
// overwrites and deletes between the layers, a cursor hopping through
// that tree by SeekGE (a T-occurrence probe), and a compaction of four
// components. ns/row is per row read. CI runs it once per case as a
// smoke test (-benchtime=1x).
func BenchmarkRangeRead(b *testing.B) {
	const n = 20000
	record := func(i int) []byte {
		rec := adm.EmptyRecord(4)
		rec.Set("id", adm.NewInt(int64(i)))
		rec.Set("reviewerName", adm.NewString(fmt.Sprintf("reviewer %d", i)))
		rec.Set("summary", adm.NewString("great product fantastic gift"))
		rec.Set("reviewText", adm.NewString(strings.Repeat("lorem ipsum dolor sit amet ", 10)))
		return adm.Encode(adm.NewRecord(rec))
	}
	open := func(b *testing.B, columnar bool) *LSMTree {
		tree, err := OpenLSM(b.TempDir(), LSMOptions{
			MemBudgetBytes: 1 << 30, MaxComponents: 1000, MaxImmutable: 100, Columnar: columnar,
			Cache: NewBufferCache(256<<20, 32<<10),
		})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { tree.Close() })
		return tree
	}
	// fill writes every step-th key from first on; every seventh of them
	// is a delete when deletes is set.
	fill := func(b *testing.B, tree *LSMTree, first, step int, deletes bool) {
		for i := first; i < n; i += step {
			var err error
			if deletes && i%7 == 0 {
				err = tree.Delete(colTestKey(i))
			} else {
				err = tree.Put(colTestKey(i), record(i))
			}
			if err != nil {
				b.Fatal(err)
			}
		}
	}
	flush := func(b *testing.B, tree *LSMTree) {
		if err := tree.Flush(); err != nil {
			b.Fatal(err)
		}
	}
	// rare keeps the rows whose reviewerName ends in 999: 20 of 20 000.
	rare := &RowFilter{Field: "reviewerName", Pass: func(v []byte) bool {
		s, ok := adm.RawString(v)
		return !ok || bytes.HasSuffix(s, []byte("999"))
	}}
	scanOnce := func(b *testing.B, tree *LSMTree, fields []string, filter *RowFilter, want int) (read int64) {
		rows := 0
		read, err := tree.ScanProjectedContext(nil, nil, nil, fields, filter, func(_, _ []byte) bool { rows++; return true })
		if err != nil || rows != want {
			b.Fatalf("scan saw %d of %d rows, err %v", rows, want, err)
		}
		return read
	}
	scan := func(b *testing.B, tree *LSMTree, fields []string, filter *RowFilter, want int) {
		read := scanOnce(b, tree, fields, filter, want) // warms the cache
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			scanOnce(b, tree, fields, filter, want)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*read), "ns/row")
	}

	for _, view := range []struct {
		name     string
		columnar bool
		fields   []string
		filter   *RowFilter
		want     int
	}{
		{"row", false, nil, nil, n},
		{"columnar", true, nil, nil, n},
		{"columnar-projected", true, []string{"id", "reviewerName", "summary"}, nil, n},
		{"columnar-filtered", true, []string{"id", "reviewerName", "summary"}, rare, n / 1000},
	} {
		b.Run("scan/"+view.name, func(b *testing.B) {
			tree := open(b, view.columnar)
			fill(b, tree, 0, 1, false)
			flush(b, tree)
			scan(b, tree, view.fields, view.filter, view.want)
		})
	}

	// layered builds three components and two memtable generations, each
	// layer overwriting and deleting part of what lies below it.
	layered := func(b *testing.B) (tree *LSMTree, live int) {
		tree = open(b, false)
		fill(b, tree, 0, 1, false)
		flush(b, tree)
		fill(b, tree, 0, 3, true)
		flush(b, tree)
		fill(b, tree, 1, 5, true)
		flush(b, tree)
		gate := make(chan struct{})
		tree.mu.Lock()
		tree.testFlushDelay = func() { <-gate }
		tree.mu.Unlock()
		b.Cleanup(func() { close(gate) })
		fill(b, tree, 2, 11, true)
		tree.mu.Lock()
		tree.rotateLocked()
		tree.mu.Unlock()
		fill(b, tree, 3, 13, true)
		if err := tree.Scan(nil, nil, func(_, _ []byte) bool { live++; return true }); err != nil {
			b.Fatal(err)
		}
		if st := tree.Stats(); st.DiskComponents != 3 || st.ImmMemtables != 1 || st.MemEntries == 0 {
			b.Fatalf("layered tree has the wrong shape: %+v", st)
		}
		return tree, live
	}
	b.Run("scan/3-components-2-memtables", func(b *testing.B) {
		tree, live := layered(b)
		scan(b, tree, nil, nil, live)
	})
	b.Run("seek/3-components-2-memtables", func(b *testing.B) {
		tree, _ := layered(b)
		snap := tree.Snapshot()
		defer snap.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c := snap.Cursors([]KeyRange{{}})[0]
			landed := 0
			for k := 0; k < n; k += 50 {
				if c.SeekGE(colTestKey(k)) {
					landed++
				}
			}
			if c.Err() != nil || landed == 0 {
				b.Fatalf("seek walk landed %d times, err %v", landed, c.Err())
			}
			c.Close()
		}
	})
	b.Run("compact/4-components", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			tree := open(b, false)
			fill(b, tree, 0, 1, false)
			flush(b, tree)
			for _, layer := range [][2]int{{0, 3}, {1, 5}, {2, 7}} {
				fill(b, tree, layer[0], layer[1], true)
				flush(b, tree)
			}
			if st := tree.Stats(); st.DiskComponents != 4 {
				b.Fatalf("%d components before the merge, want 4", st.DiskComponents)
			}
			b.StartTimer()
			if err := tree.Merge(); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			tree.Close() // now, not at cleanup: an iteration's tree is 10 MB of files
			b.StartTimer()
		}
	})
}
