package cluster

import (
	"io/fs"
	"path/filepath"
	"strings"
	"testing"

	"simdb/internal/adm"
	"simdb/internal/datagen"
	"simdb/internal/storage"
)

// indexBytesCeiling is what each secondary index may take on disk per
// entry — component bytes (pages, page index, footer) over entries —
// after 20 000 generated Amazon records are loaded and the three indexes
// of the benchmark are built and flushed. Measured: 5.57 (keyword), 4.29
// (2-gram), 14.87 (btree); the ceilings leave 5 %. Front-coded row pages
// put a 2-gram posting, with the record's token-count byte, in under
// four bytes of page data, where whole keys took 19, and index
// components carry no bloom filter (ten bits per key before). A change
// that raises a figure stores more per posting.
var indexBytesCeiling = map[string]float64{
	"akw": 5.8,  // keyword over summary
	"ang": 4.5,  // 2-gram over reviewerName
	"abt": 15.6, // btree over reviewerName
}

func TestIndexBytesPerEntryCeiling(t *testing.T) {
	c, err := New(Config{NumNodes: 2, PartitionsPerNode: 2, DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	sess := NewSession()
	exec(t, c, sess, `create dataset ARevs primary key id;`)
	var batch []adm.Value
	err = datagen.Generate(datagen.Amazon, 20000, datagen.Options{Seed: 1}, func(v adm.Value) error {
		if batch = append(batch, v); len(batch) < 512 {
			return nil
		}
		err := c.InsertBatch("Default", "ARevs", batch)
		batch = batch[:0]
		return err
	})
	if err == nil {
		err = c.InsertBatch("Default", "ARevs", batch)
	}
	if err != nil {
		t.Fatal(err)
	}
	exec(t, c, sess, `create index akw on ARevs(summary) type keyword;`)
	exec(t, c, sess, `create index ang on ARevs(reviewerName) type ngram(2);`)
	exec(t, c, sess, `create index abt on ARevs(reviewerName) type btree;`)
	if err := c.FlushAll(); err != nil {
		t.Fatal(err)
	}

	bytes, entries := map[string]int64{}, map[string]int64{}
	cache := storage.NewBufferCache(1<<20, 4096)
	err = filepath.WalkDir(c.cfg.DataDir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !strings.HasSuffix(path, ".cmp") {
			return err
		}
		for name := range indexBytesCeiling {
			if !strings.Contains(path, string(filepath.Separator)+"idx_"+name+string(filepath.Separator)) {
				continue
			}
			comp, err := storage.OpenComponent(path, cache)
			if err != nil {
				return err
			}
			bytes[name] += comp.SizeBytes()
			entries[name] += comp.Len()
			comp.Close()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for name, ceiling := range indexBytesCeiling {
		if entries[name] == 0 {
			t.Fatalf("index %s: no components under the data directory", name)
		}
		per := float64(bytes[name]) / float64(entries[name])
		t.Logf("index %s: %d entries in %d bytes, %.2f bytes per entry", name, entries[name], bytes[name], per)
		if per > ceiling {
			t.Errorf("index %s: %.2f bytes per entry, ceiling %.1f", name, per, ceiling)
		}
	}
}
