package cluster

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"simdb/internal/adm"
	"simdb/internal/datagen"
	"simdb/internal/optimizer"
	"simdb/internal/sim"
	"simdb/internal/storage"
	"simdb/internal/tokenizer"
)

// TestVersionOneStoreReadsBack: primary trees are written columnar, but a
// store may hold row components written before that was the only
// layout. The dataset is loaded, a few records are overwritten, the
// cluster is closed, and each primary partition is rewritten as one row
// component by a merge under storage's row writer — which writes the
// front-coded row format (version 3), so what this proves is that
// primary records in row components, whose values a projected read
// cannot shred, answer every plan; storage's TestVersionOneComponentReads
// reads a version-1 component itself. On the reopened store the index
// plan (a projected, filtered primary lookup), the scan plan (a filtered
// scan) and a reference computed here agree on the CANON selections;
// then again once one more row is flushed beside the old component, so
// the tree holds a row and a columnar component.
func TestVersionOneStoreReadsBack(t *testing.T) {
	cfg := Config{NumNodes: 2, PartitionsPerNode: 1, DataDir: t.TempDir()}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	recs := loadSynthetic(t, c, NewSession(), "ARevs", datagen.Amazon, 400)
	type row struct {
		id      int64
		name    string
		summary []string
	}
	rows := make([]row, len(recs))
	for i, r := range recs {
		id, _ := r.Rec().Get("id")
		name, _ := r.Rec().Get("reviewerName")
		summary, _ := r.Rec().Get("summary")
		rows[i] = row{id.Int(), name.Str(), tokenizer.WordTokens(summary.Str())}
	}
	insert := func(c *Cluster, id int64, name, summary string) {
		rec := adm.EmptyRecord(3)
		rec.Set("id", adm.NewInt(id))
		rec.Set("reviewerName", adm.NewString(name))
		rec.Set("summary", adm.NewString(summary))
		if err := c.Insert("Default", "ARevs", adm.NewRecord(rec)); err != nil {
			t.Fatal(err)
		}
		if err := c.FlushAll(); err != nil {
			t.Fatal(err)
		}
	}
	// Overwrites in a second component per partition, so that the merge
	// below has newer versions to prefer.
	for i := 0; i < len(rows); i += 40 {
		rows[i].summary = tokenizer.WordTokens("the great product of love")
		insert(c, rows[i].id, rows[i].name, "the great product of love")
	}
	c.Close()

	parts, err := filepath.Glob(filepath.Join(cfg.DataDir, "node*", "Default", "ARevs", "p*"))
	if err != nil || len(parts) != cfg.NumNodes*cfg.PartitionsPerNode {
		t.Fatalf("primary partitions %v (%v)", parts, err)
	}
	for _, dir := range parts {
		tree, err := storage.OpenLSM(dir, storage.LSMOptions{Cache: storage.NewBufferCache(1<<20, 4096), Columnar: false})
		if err != nil {
			t.Fatal(err)
		}
		if err := tree.Merge(); err != nil {
			t.Fatal(err)
		}
		if err := tree.Close(); err != nil {
			t.Fatal(err)
		}
		// A component file ends in its footer: an 8-byte magic number,
		// then the format version as a little-endian uint32.
		cmps, _ := filepath.Glob(filepath.Join(dir, "*.cmp"))
		for _, path := range cmps {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if v := binary.LittleEndian.Uint32(data[len(data)-36:]); len(cmps) != 1 || v != 3 {
				t.Fatalf("%s: %d components, this one version %d; want one of version 3", dir, len(cmps), v)
			}
		}
	}

	c, err = New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	exec(t, c, NewSession(), `create dataset ARevs primary key id;`)
	exec(t, c, NewSession(), `create index vkw on ARevs(summary) type keyword;`)
	exec(t, c, NewSession(), `create index vng on ARevs(reviewerName) type ngram(2);`)

	const canonRet = ` return {'id': $r.id, 'summary': $r.summary, 'reviewerName': $r.reviewerName}`
	query := tokenizer.WordTokens("the great product of love")
	name := rows[1].name
	selections := []struct {
		name, q string
		keep    func(row) bool
	}{
		{"jaccard", `for $r in dataset ARevs
			where similarity-jaccard(word-tokens($r.summary), word-tokens('the great product of love')) >= 0.5` + canonRet,
			func(r row) bool { return sim.Jaccard(r.summary, query) >= 0.5 }},
		{"edit-distance", fmt.Sprintf(`for $r in dataset ARevs where edit-distance($r.reviewerName, '%s') <= 2`, name) + canonRet,
			func(r row) bool { return sim.EditDistance(r.name, name) <= 2 }},
	}
	scan := sessionOpts(func(o *optimizer.Options) { o.UseIndexes = false })
	check := func(when string) {
		for _, sel := range selections {
			var want []int64
			for _, r := range rows {
				if sel.keep(r) {
					want = append(want, r.id)
				}
			}
			byScan, byIndex := exec(t, c, scan, sel.q), exec(t, c, sessionOpts(nil), sel.q)
			if line := sourceLine(byScan.Stats.LogicalPlan()); !strings.Contains(line, "data-scan") || !strings.Contains(line, "filter:[") {
				t.Errorf("%s, %s: scan plan's source is %q, want a filtered scan", when, sel.name, line)
			}
			if line := sourceLine(byIndex.Stats.LogicalPlan()); !strings.Contains(line, "primary-index-lookup") ||
				!strings.Contains(line, "project:[id, reviewerName, summary] filter:[") {
				t.Errorf("%s, %s: index plan's source is %q, want a projected, filtered lookup", when, sel.name, line)
			}
			var got []int64
			for _, r := range byIndex.Rows {
				id, _ := r.Rec().Get("id")
				got = append(got, id.Int())
			}
			sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
			if len(want) == 0 || fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("%s, %s: index plan %v, reference %v", when, sel.name, got, want)
			}
			if resultKey(byScan) != resultKey(byIndex) {
				t.Errorf("%s, %s: scan plan (%d rows) differs from index plan (%d rows)", when, sel.name, len(byScan.Rows), len(byIndex.Rows))
			}
		}
	}
	check("version-1 store")

	rows = append(rows, row{1000, name, query})
	insert(c, 1000, name, "the great product of love")
	check("mixed store")
}
