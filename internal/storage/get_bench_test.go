package storage

import (
	"fmt"
	"strings"
	"testing"

	"simdb/internal/adm"
)

// BenchmarkComponentGet times one point read of a warm component
// holding 1024 review-shaped records — one row group in the columnar
// format, some ninety 4 KiB pages in the row format — on each read
// path: row page (walked), columnar group (offset table), projected
// columnar group. Hits cycle through the stored keys; misses are keys
// that fall between stored ones, with the bloom filter saturated so
// that every miss searches a page instead of stopping at the filter.
// CI runs it once per case as a smoke test (-benchtime=1x).
func BenchmarkComponentGet(b *testing.B) {
	const n = colMaxGroupRows
	hits, misses := make([][]byte, n), make([][]byte, n)
	entries := make([][]byte, n)
	for i := range entries {
		hits[i] = colTestKey(2 * i)
		misses[i] = colTestKey(2*i + 1)
		rec := adm.EmptyRecord(4)
		rec.Set("id", adm.NewInt(int64(i)))
		rec.Set("reviewerName", adm.NewString(fmt.Sprintf("reviewer %d", i)))
		rec.Set("summary", adm.NewString("great product fantastic gift"))
		rec.Set("reviewText", adm.NewString(strings.Repeat("lorem ipsum dolor sit amet ", 10)))
		entries[i] = adm.Append([]byte{0}, adm.NewRecord(rec))
	}
	views := []struct {
		name     string
		columnar bool
		proj     *Projection
	}{
		{"row", false, nil},
		{"columnar-full", true, nil},
		{"columnar-projected", true, NewProjection([]string{"id", "reviewerName", "summary"})},
	}
	for _, view := range views {
		c := openTestComponent(b, view.columnar, hits, func(i int) []byte { return entries[i] })
		defer c.Close()
		for _, probe := range []struct {
			name string
			keys [][]byte
		}{{"hit", hits}, {"miss", misses}} {
			b.Run(view.name+"/"+probe.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					_, found, err := c.GetProjected(probe.keys[(i*31)%n], view.proj)
					if err != nil || found != (probe.name == "hit") {
						b.Fatalf("Get = found %v, err %v", found, err)
					}
				}
			})
		}
	}
}
