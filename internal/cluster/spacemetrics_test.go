package cluster

import (
	"io/fs"
	"path/filepath"
	"strings"
	"testing"

	"simdb/internal/datagen"
)

// TestStorageByteGaugesSumToDataDir: after a load, three secondary
// indexes and a flush, the primaries' storage.disk.bytes, the indexes'
// storage.index.bytes and the logs' storage.wal.bytes account for every
// byte of the regular files under the data directory — the engine
// explains its own space amplification.
func TestStorageByteGaugesSumToDataDir(t *testing.T) {
	dir := t.TempDir()
	c, err := New(Config{NumNodes: 2, PartitionsPerNode: 2, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	sess := NewSession()
	loadSynthetic(t, c, sess, "ARevs", datagen.Amazon, 400)
	exec(t, c, sess, `create index akw on ARevs(summary) type keyword;`)
	exec(t, c, sess, `create index ang on ARevs(reviewerName) type ngram(2);`)
	exec(t, c, sess, `create index abt on ARevs(reviewerName) type btree;`)
	if err := c.FlushAll(); err != nil {
		t.Fatal(err)
	}
	g := c.Metrics().Gauges
	primary, index, wal := g["storage.disk.bytes"], g["storage.index.bytes"], g["storage.wal.bytes"]

	// The files by kind: components under a primary tree's p<part> or an
	// index's idx_<name> directory, log segments, and anything else.
	var filesPrimary, filesIndex, filesWAL int64
	var other []string
	err = filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(dir, path)
		switch {
		case strings.HasSuffix(path, ".wal"):
			filesWAL += info.Size()
		case strings.HasSuffix(path, ".cmp") && strings.Contains(rel, "idx_"):
			filesIndex += info.Size()
		case strings.HasSuffix(path, ".cmp"):
			filesPrimary += info.Size()
		default:
			other = append(other, rel)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if primary == 0 || index == 0 || wal == 0 {
		t.Fatalf("gauges disk.bytes=%d index.bytes=%d wal.bytes=%d: each should be positive", primary, index, wal)
	}
	if primary != filesPrimary {
		t.Errorf("storage.disk.bytes = %d, primary component files hold %d", primary, filesPrimary)
	}
	if index != filesIndex {
		t.Errorf("storage.index.bytes = %d, index component files hold %d", index, filesIndex)
	}
	if wal != filesWAL {
		t.Errorf("storage.wal.bytes = %d, log segment files hold %d", wal, filesWAL)
	}
	if len(other) > 0 {
		t.Errorf("files no gauge accounts for: %v", other)
	}
	// The flush checkpointed every tree of every partition's log: each log
	// is down to one fresh segment of a few checkpoint records, where the
	// records loaded took more bytes than the primary components.
	if segs := g["storage.wal.segments"]; segs != 4 || wal*100 > primary {
		t.Errorf("after a flush of four partitions: %d log segments of %d bytes, want 4 of under 1%% of the primary's %d",
			segs, wal, primary)
	}
	t.Logf("primary %d, index %d, wal %d bytes", primary, index, wal)
}
