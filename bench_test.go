// Package simdb_test holds the top-level benchmark harness: one
// testing.B benchmark per table and figure of the paper's evaluation
// (each drives the same internal/bench experiment code as
// cmd/benchrunner, at a reduced scale suitable for `go test -bench`),
// plus micro-benchmarks for the similarity kernels and storage layer.
//
// Full-scale reproductions: `go run ./cmd/benchrunner -scale 20000 all`.
package simdb_test

import (
	"fmt"
	"io"
	"os"
	"testing"

	"simdb/internal/adm"
	"simdb/internal/bench"
	"simdb/internal/datagen"
	"simdb/internal/invindex"
	"simdb/internal/sim"
	"simdb/internal/storage"
	"simdb/internal/tokenizer"
)

// benchScale keeps `go test -bench=.` runs bounded; benchrunner covers
// full scale.
const benchScale = 1500

// newBenchEnv builds a small experiment environment.
func newBenchEnv(b *testing.B) *bench.Env {
	b.Helper()
	dir, err := os.MkdirTemp("", "simdb-bench-*")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { os.RemoveAll(dir) })
	e := bench.NewEnv(dir)
	e.Scale = benchScale
	e.SelQueries = 3
	e.JoinQueries = 1
	e.Out = io.Discard
	e.ReportDir = dir
	b.Cleanup(func() { e.Close() })
	return e
}

func runExperiment(b *testing.B, name string) {
	e := newBenchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.Run(name); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable3DatasetLoad(b *testing.B)        { runExperiment(b, "table3") }
func BenchmarkTable4FieldStats(b *testing.B)         { runExperiment(b, "table4") }
func BenchmarkTable5IndexBuild(b *testing.B)         { runExperiment(b, "table5") }
func BenchmarkTable6Candidates(b *testing.B)         { runExperiment(b, "table6") }
func BenchmarkFig15PlanSize(b *testing.B)            { runExperiment(b, "fig15") }
func BenchmarkFig22aJaccardSelect(b *testing.B)      { runExperiment(b, "fig22a") }
func BenchmarkFig22bEditDistanceSelect(b *testing.B) { runExperiment(b, "fig22b") }
func BenchmarkFig24aJaccardJoin(b *testing.B)        { runExperiment(b, "fig24a") }
func BenchmarkFig24bEditDistanceJoin(b *testing.B)   { runExperiment(b, "fig24b") }

// BenchmarkFig25aJoinCrossover uses a reduced outer-row sweep via the
// same harness (the full 200..1400 sweep runs in benchrunner).
func BenchmarkFig25aJoinCrossover(b *testing.B) { runExperiment(b, "fig25a") }

func BenchmarkFig25bMultiwayJoin(b *testing.B) { runExperiment(b, "fig25b") }

// BenchmarkFig27Scale runs the scale-out/speed-up suite at small scale.
func BenchmarkFig27Scale(b *testing.B) { runExperiment(b, "fig27") }

// BenchmarkAblations runs the design-choice ablations.
func BenchmarkAblations(b *testing.B) { runExperiment(b, "ablation") }

// BenchmarkServingHTTPLoad drives the simdbd HTTP front end with
// open-loop load at rising session counts, emitting BENCH_serving.json
// (full scale via `benchrunner serving`).
func BenchmarkServingHTTPLoad(b *testing.B) { runExperiment(b, "serving") }

// --- micro-benchmarks ---

func BenchmarkEditDistance(b *testing.B) {
	a, s := "Jonathan Marlowe", "Jonathon Marlow"
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sim.EditDistance(a, s)
	}
}

func BenchmarkEditDistanceCheckK2(b *testing.B) {
	a, s := "Jonathan Marlowe", "Jonathon Marlow"
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sim.EditDistanceCheck(a, s, 2)
	}
}

func BenchmarkJaccardCheck(b *testing.B) {
	x := tokenizer.WordTokens("the quick brown fox jumps over the lazy dog")
	y := tokenizer.WordTokens("the quick brown fox leaps over a lazy cat")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sim.JaccardCheck(x, y, 0.5)
	}
}

func BenchmarkWordTokens(b *testing.B) {
	s := "Great Product - Fantastic Gift for the whole family"
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tokenizer.WordTokens(s)
	}
}

func BenchmarkGramTokens(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tokenizer.GramTokens("Jonathan Marlowe", 2, true)
	}
}

// BenchmarkTOccurrence compares the three list-merging algorithms on a
// skewed posting-list workload.
func BenchmarkTOccurrence(b *testing.B) {
	lists := make([][]invindex.PK, 6)
	for i := range lists {
		n := 200 << i // 200 .. 6400: skewed lengths
		l := make([]invindex.PK, n)
		for j := range l {
			l[j] = invindex.PK(adm.OrderedKey(adm.NewInt(int64(j * (i + 7)))))
		}
		lists[i] = l
	}
	ix := struct{}{}
	_ = ix
	for _, algo := range []struct {
		name string
		fn   func([][]invindex.PK, int) []invindex.PK
	}{
		{"ScanCount", invindex.ScanCountMerge},
		{"MergeSkip", invindex.MergeSkipMerge},
		{"DivideSkip", invindex.DivideSkipMerge},
	} {
		b.Run(algo.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				algo.fn(lists, 3)
			}
		})
	}
}

func BenchmarkLSMPut(b *testing.B) {
	dir, _ := os.MkdirTemp("", "simdb-lsm-*")
	defer os.RemoveAll(dir)
	tree, err := storage.OpenLSM(dir, storage.LSMOptions{})
	if err != nil {
		b.Fatal(err)
	}
	defer tree.Close()
	val := []byte("value-payload-of-reasonable-size-for-a-record")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := []byte(fmt.Sprintf("key-%09d", i))
		if err := tree.Put(key, val); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLSMGet(b *testing.B) {
	dir, _ := os.MkdirTemp("", "simdb-lsm-*")
	defer os.RemoveAll(dir)
	tree, err := storage.OpenLSM(dir, storage.LSMOptions{})
	if err != nil {
		b.Fatal(err)
	}
	defer tree.Close()
	const n = 20000
	for i := 0; i < n; i++ {
		tree.Put([]byte(fmt.Sprintf("key-%09d", i)), []byte("v"))
	}
	tree.Flush()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := []byte(fmt.Sprintf("key-%09d", i%n))
		if _, ok, err := tree.Get(key); err != nil || !ok {
			b.Fatal("missing key")
		}
	}
}

func BenchmarkDatagenAmazon(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := datagen.Generate(datagen.Amazon, 1000, datagen.Options{Seed: 1},
			func(adm.Value) error { return nil }); err != nil {
			b.Fatal(err)
		}
	}
}
