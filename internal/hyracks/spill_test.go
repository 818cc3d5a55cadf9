package hyracks

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"simdb/internal/adm"
	"simdb/internal/storage"
)

// runBudgeted executes a job under the given per-query budget (0 =
// unlimited) with a temp spill store, returning the job stats and the
// accountant (nil when unbudgeted).
func runBudgeted(t *testing.T, job *Job, budget int64) (*JobStats, *MemoryAccountant) {
	t.Helper()
	topo := Topology{Partitions: 1, PartsPerNode: 1}
	var acct *MemoryAccountant
	if budget > 0 {
		acct = NewMemoryAccountant(budget)
		spill := storage.NewRunFileManager(filepath.Join(t.TempDir(), "spill"))
		defer spill.Close()
		topo.Mem = acct
		topo.Spill = spill
	}
	stats, err := Run(context.Background(), job, topo)
	if err != nil {
		t.Fatal(err)
	}
	return stats, acct
}

// payload pads tuples so modest row counts exceed small budgets.
func payload(r *rand.Rand) adm.Value {
	return adm.NewString(strings.Repeat("x", 40+r.Intn(40)))
}

func encodeRows(ts []Tuple) []string {
	out := make([]string, len(ts))
	for i, t := range ts {
		var b []byte
		for _, v := range t {
			b = adm.Append(b, v)
		}
		out[i] = string(b)
	}
	return out
}

func sameSequence(t *testing.T, name string, got, want []Tuple) {
	t.Helper()
	g, w := encodeRows(got), encodeRows(want)
	if len(g) != len(w) {
		t.Fatalf("%s: %d rows, want %d", name, len(g), len(w))
	}
	for i := range g {
		if g[i] != w[i] {
			t.Fatalf("%s: row %d differs from in-memory result", name, i)
		}
	}
}

func sameMultiset(t *testing.T, name string, got, want []Tuple) {
	t.Helper()
	g, w := encodeRows(got), encodeRows(want)
	sort.Strings(g)
	sort.Strings(w)
	if len(g) != len(w) {
		t.Fatalf("%s: %d rows, want %d", name, len(g), len(w))
	}
	for i := range g {
		if g[i] != w[i] {
			t.Fatalf("%s: multiset differs at %d", name, i)
		}
	}
}

// sortInput builds (key, seq, pad) tuples; seq is the arrival index so
// exact-sequence comparison against the in-memory sort also verifies
// stability on duplicate keys.
func sortInput(kind string, n int) []Tuple {
	r := rand.New(rand.NewSource(7))
	ts := make([]Tuple, n)
	for i := 0; i < n; i++ {
		var key int64
		switch kind {
		case "dup-heavy":
			key = int64(r.Intn(5))
		case "pre-sorted":
			key = int64(i)
		case "reverse":
			key = int64(n - i)
		default:
			key = int64(r.Intn(n * 10))
		}
		ts[i] = Tuple{adm.NewInt(key), adm.NewInt(int64(i)), payload(r)}
	}
	return ts
}

func tupleSource(ts []Tuple) func() Operator {
	return SourceFunc(func(ctx *TaskCtx, emit func(Tuple)) error {
		for _, t := range ts {
			emit(t)
		}
		return nil
	})
}

func sortJob(input []Tuple) (*Job, *Collector) {
	job := &Job{}
	src := job.Add("Src", 1, tupleSource(input))
	srt := job.Add("Sort", 1, Sort([]SortCol{{Col: 0}}),
		Input{From: src, Conn: ConnectorSpec{Type: OneToOne}})
	var c Collector
	MakeSink(job, "Sink", &c, Input{From: srt, Conn: ConnectorSpec{Type: GatherOne}})
	return job, &c
}

func TestExternalSortMatchesInMemory(t *testing.T) {
	for _, kind := range []string{"random", "dup-heavy", "pre-sorted", "reverse"} {
		for _, budget := range []int64{64 << 10, 256 << 10, 8 << 20} {
			t.Run(fmt.Sprintf("%s-%dk", kind, budget>>10), func(t *testing.T) {
				input := sortInput(kind, 3000)
				refJob, refC := sortJob(input)
				runBudgeted(t, refJob, 0)

				job, c := sortJob(input)
				stats, acct := runBudgeted(t, job, budget)
				sameSequence(t, kind, c.Tuples, refC.Tuples)
				runs, bytes := stats.SpillTotals()
				if budget <= 256<<10 {
					if runs == 0 || bytes == 0 {
						t.Fatalf("tight budget did not spill (runs=%d bytes=%d)", runs, bytes)
					}
				} else if runs != 0 {
					t.Fatalf("generous budget spilled %d runs", runs)
				}
				if acct.Used() != 0 {
					t.Fatalf("leaked %d reserved bytes", acct.Used())
				}
				if budget >= 256<<10 && acct.HighWater() > budget {
					t.Fatalf("high water %d exceeds budget %d", acct.HighWater(), budget)
				}
			})
		}
	}
}

func groupJob(input []Tuple) (*Job, *Collector) {
	job := &Job{}
	src := job.Add("Src", 1, tupleSource(input))
	grp := job.Add("HashGroup", 1, HashGroup([]int{0}, []AggSpec{
		{Kind: AggCount},
		{Kind: AggSum, In: 1},
		{Kind: AggMin, In: 1},
		{Kind: AggMax, In: 1},
		{Kind: AggAvg, In: 1},
		{Kind: AggListify, In: 1},
		{Kind: AggFirst, In: 2},
	}), Input{From: src, Conn: ConnectorSpec{Type: OneToOne}})
	var c Collector
	MakeSink(job, "Sink", &c, Input{From: grp, Conn: ConnectorSpec{Type: GatherOne}})
	return job, &c
}

func TestHashGroupSpillMatchesInMemory(t *testing.T) {
	for _, kind := range []string{"many-keys", "dup-heavy"} {
		for _, budget := range []int64{64 << 10, 256 << 10, 8 << 20} {
			t.Run(fmt.Sprintf("%s-%dk", kind, budget>>10), func(t *testing.T) {
				r := rand.New(rand.NewSource(11))
				nKeys := 700
				if kind == "dup-heavy" {
					nKeys = 3
				}
				var input []Tuple
				for i := 0; i < 4000; i++ {
					input = append(input, Tuple{
						adm.NewInt(int64(r.Intn(nKeys))),
						adm.NewInt(int64(i)),
						payload(r),
					})
				}
				refJob, refC := groupJob(input)
				runBudgeted(t, refJob, 0)
				job, c := groupJob(input)
				stats, acct := runBudgeted(t, job, budget)
				// Group output order is hash-table iteration order, which
				// legitimately differs once partitions spill; the rows
				// themselves (including listify element ORDER) must match.
				sameMultiset(t, kind, c.Tuples, refC.Tuples)
				if runs, _ := stats.SpillTotals(); budget == 64<<10 && runs == 0 {
					t.Fatal("tight budget did not spill")
				}
				if acct.Used() != 0 {
					t.Fatalf("leaked %d reserved bytes", acct.Used())
				}
			})
		}
	}
}

func joinJob(build, probe []Tuple) (*Job, *Collector) {
	job := &Job{}
	b := job.Add("Build", 1, tupleSource(build))
	p := job.Add("Probe", 1, tupleSource(probe))
	j := job.Add("HashJoin", 1, HashJoin([]int{0}, []int{0}),
		Input{From: b, Conn: ConnectorSpec{Type: OneToOne}},
		Input{From: p, Conn: ConnectorSpec{Type: OneToOne}})
	var c Collector
	MakeSink(job, "Sink", &c, Input{From: j, Conn: ConnectorSpec{Type: GatherOne}})
	return job, &c
}

func TestHashJoinSpillMatchesInMemory(t *testing.T) {
	for _, kind := range []string{"spread", "one-giant-key"} {
		for _, budget := range []int64{64 << 10, 256 << 10, 8 << 20} {
			t.Run(fmt.Sprintf("%s-%dk", kind, budget>>10), func(t *testing.T) {
				r := rand.New(rand.NewSource(13))
				var build, probe []Tuple
				if kind == "one-giant-key" {
					// Hashing cannot split one key: forces the depth cap and
					// the block-nested-loop fallback.
					for i := 0; i < 400; i++ {
						build = append(build, Tuple{adm.NewInt(1), adm.NewInt(int64(i)), payload(r)})
					}
					for i := 0; i < 150; i++ {
						probe = append(probe, Tuple{adm.NewInt(1), adm.NewInt(int64(1000 + i))})
					}
				} else {
					for i := 0; i < 2500; i++ {
						build = append(build, Tuple{adm.NewInt(int64(r.Intn(500))), adm.NewInt(int64(i)), payload(r)})
					}
					for i := 0; i < 2500; i++ {
						key := adm.NewInt(int64(r.Intn(500)))
						if i%97 == 0 {
							key = adm.Null // null keys never match
						}
						probe = append(probe, Tuple{key, adm.NewInt(int64(10000 + i))})
					}
				}
				refJob, refC := joinJob(build, probe)
				runBudgeted(t, refJob, 0)
				job, c := joinJob(build, probe)
				stats, acct := runBudgeted(t, job, budget)
				sameMultiset(t, kind, c.Tuples, refC.Tuples)
				if runs, _ := stats.SpillTotals(); budget == 64<<10 && runs == 0 {
					t.Fatal("tight budget did not spill")
				}
				if acct.Used() != 0 {
					t.Fatalf("leaked %d reserved bytes", acct.Used())
				}
			})
		}
	}
}

func TestNestedLoopJoinSpillMatchesInMemory(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	var build, probe []Tuple
	for i := 0; i < 800; i++ {
		build = append(build, Tuple{adm.NewInt(int64(i % 40)), payload(r)})
	}
	for i := 0; i < 500; i++ {
		probe = append(probe, Tuple{adm.NewInt(int64(i % 40))})
	}
	// The predicate sees build ++ probe: the build's two columns, then the probe's.
	pred := func(row Tuple) (bool, error) { return row[0].Int() == row[2].Int(), nil }
	mk := func() (*Job, *Collector) {
		job := &Job{}
		bn := job.Add("Build", 1, tupleSource(build))
		pn := job.Add("Probe", 1, tupleSource(probe))
		j := job.Add("NLJ", 1, NestedLoopJoin(pred),
			Input{From: bn, Conn: ConnectorSpec{Type: OneToOne}},
			Input{From: pn, Conn: ConnectorSpec{Type: OneToOne}})
		var c Collector
		MakeSink(job, "Sink", &c, Input{From: j, Conn: ConnectorSpec{Type: GatherOne}})
		return job, &c
	}
	refJob, refC := mk()
	runBudgeted(t, refJob, 0)
	for _, budget := range []int64{64 << 10, 8 << 20} {
		job, c := mk()
		stats, _ := runBudgeted(t, job, budget)
		if budget == 8<<20 {
			// Unspilled path preserves the legacy probe-major order.
			sameSequence(t, "nlj-generous", c.Tuples, refC.Tuples)
		} else {
			sameMultiset(t, "nlj-tight", c.Tuples, refC.Tuples)
			if runs, _ := stats.SpillTotals(); runs == 0 {
				t.Fatal("tight budget did not spill")
			}
		}
	}
}

func TestMaterializeAndReplicateSpill(t *testing.T) {
	r := rand.New(rand.NewSource(19))
	var input []Tuple
	for i := 0; i < 2000; i++ {
		input = append(input, Tuple{adm.NewInt(int64(i)), payload(r)})
	}
	for _, budget := range []int64{64 << 10, 8 << 20} {
		// Materialize must replay exactly the arrival order.
		job := &Job{}
		src := job.Add("Src", 1, tupleSource(input))
		mat := job.Add("Materialize", 1, Materialize(),
			Input{From: src, Conn: ConnectorSpec{Type: OneToOne}})
		var c Collector
		MakeSink(job, "Sink", &c, Input{From: mat, Conn: ConnectorSpec{Type: GatherOne}})
		stats, _ := runBudgeted(t, job, budget)
		sameSequence(t, "materialize", c.Tuples, input)
		if runs, _ := stats.SpillTotals(); budget == 64<<10 && runs == 0 {
			t.Fatal("materialize did not spill under tight budget")
		}

		// Replicate: every port sees the full buffer in arrival order.
		job2 := &Job{}
		src2 := job2.Add("Src", 1, tupleSource(input))
		rep := job2.Add("Replicate", 1, Replicate(2),
			Input{From: src2, Conn: ConnectorSpec{Type: OneToOne}})
		rep.OutPorts = 2
		var c0, c1 Collector
		s0 := job2.Add("Sink0", 1, c0.Op(), Input{From: rep, FromPort: 0, Conn: ConnectorSpec{Type: GatherOne}})
		s0.OutPorts = 0
		s1 := job2.Add("Sink1", 1, c1.Op(), Input{From: rep, FromPort: 1, Conn: ConnectorSpec{Type: GatherOne}})
		s1.OutPorts = 0
		runBudgeted(t, job2, budget)
		sameSequence(t, "replicate-port0", c0.Tuples, input)
		sameSequence(t, "replicate-port1", c1.Tuples, input)
	}
}

func TestAccountantForceAndHighWater(t *testing.T) {
	a := NewMemoryAccountant(1)
	if a.Budget() != MinQueryMemory {
		t.Fatalf("tiny budget not clamped: %d", a.Budget())
	}
	if NewMemoryAccountant(0) != nil || NewMemoryAccountant(-5) != nil {
		t.Fatal("non-positive budgets must disable accounting")
	}
	ctx := &TaskCtx{Mem: a}
	g := ctx.Grant()
	if !g.Reserve(MinQueryMemory) {
		t.Fatal("reserve within budget failed")
	}
	if g.Reserve(1) {
		t.Fatal("reserve past budget succeeded")
	}
	g.Force(100)
	if a.ForcedBytes() != 100 {
		t.Fatalf("forced = %d", a.ForcedBytes())
	}
	if a.HighWater() != MinQueryMemory+100 {
		t.Fatalf("high water = %d", a.HighWater())
	}
	g.ReleaseAll()
	if a.Used() != 0 || g.Held() != 0 {
		t.Fatalf("release-all left used=%d held=%d", a.Used(), g.Held())
	}
	// Nil-accountant grants are unlimited no-ops.
	var nilCtx TaskCtx
	ng := nilCtx.Grant()
	if !ng.Reserve(1 << 60) {
		t.Fatal("nil accountant must accept any reservation")
	}
	ng.ReleaseAll()
}
