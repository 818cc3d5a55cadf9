package hyracks

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"simdb/internal/adm"
)

func intTuple(vals ...int64) Tuple {
	t := make(Tuple, len(vals))
	for i, v := range vals {
		t[i] = adm.NewInt(v)
	}
	return t
}

// runFunc is the body of a test node's instances (OpNode.Run).
type runFunc = func(ctx *TaskCtx, in []*PortReader, out []*Emitter) error

// sinkTo adds a one-instance node that hands every row of input to c, as
// the last stage of a job's result pipeline does.
func sinkTo(job *Job, c *Collector, input Input) {
	job.Add("Sink", 1, func(ctx *TaskCtx, in []*PortReader, _ []*Emitter) error {
		return feedPort(in[0], func(t Tuple) error { return c.Collect(ctx, t) })
	}, input).OutPorts = 0
}

// fanOutOf runs the rows rows returns through a FanOut over every output
// port of its node, as the end of a pipeline several readers share does.
func fanOutOf(rows func(ctx *TaskCtx) []Tuple) runFunc {
	return func(ctx *TaskCtx, _ []*PortReader, out []*Emitter) error {
		f := FanOut(ctx, out)
		defer f.Close()
		for _, t := range rows(ctx) {
			if err := f.Add(t); err != nil {
				return err
			}
		}
		return f.End()
	}
}

// unionOf reads its input ports one after another, as the pipeline over
// a union's inputs does.
func unionOf(ctx *TaskCtx, in []*PortReader, out []*Emitter) error {
	for _, port := range in {
		if err := feedPort(port, func(t Tuple) error {
			out[0].Emit(t)
			return nil
		}); err != nil {
			return err
		}
	}
	return nil
}

// rangeSource emits ints [0, n) spread across partitions round-robin.
func rangeSource(n int64) runFunc {
	return func(ctx *TaskCtx, in []*PortReader, out []*Emitter) error {
		// The partition count isn't visible here; emit the whole
		// range from partition 0 keyed by Part in tests that need
		// distribution, so tests use partitionedSource instead.
		for i := int64(0); i < n; i++ {
			out[0].Emit(intTuple(i))
		}
		return nil
	}
}

// partitionedSource emits vals[p] from instance p.
func partitionedSource(vals [][]int64) runFunc {
	return func(ctx *TaskCtx, in []*PortReader, out []*Emitter) error {
		for _, v := range vals[ctx.Part] {
			out[0].Emit(intTuple(v))
		}
		return nil
	}
}

func collectInts(t *testing.T, c *Collector, col int) []int64 {
	t.Helper()
	var out []int64
	for _, tu := range c.Tuples {
		out = append(out, tu[col].Int())
	}
	return out
}

func sorted(xs []int64) []int64 {
	out := append([]int64(nil), xs...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func topo(parts, perNode int) Topology {
	return Topology{Partitions: parts, PartsPerNode: perNode}
}

func TestSourceToSinkGather(t *testing.T) {
	job := &Job{}
	src := job.Add("Src", 2, partitionedSource([][]int64{{1, 2, 3}, {4, 5}}))
	var c Collector
	sinkTo(job, &c, Input{From: src, Conn: ConnectorSpec{Type: GatherOne}})
	stats, err := Run(context.Background(), job, topo(2, 1))
	if err != nil {
		t.Fatal(err)
	}
	got := sorted(collectInts(t, &c, 0))
	want := []int64{1, 2, 3, 4, 5}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("got %v, want %v", got, want)
	}
	if stats.WallNs <= 0 {
		t.Error("missing wall time")
	}
	// One record per instance (two sources, one sink), folded per
	// operator in job order.
	ops := AggregateOps(stats.Spans)
	if len(stats.Spans) != 3 || len(ops) != 2 || ops[0].Name != "Src" || ops[0].Instances != 2 || ops[1].Name != "Sink" {
		t.Errorf("spans %+v fold to %+v", stats.Spans, ops)
	}
	if ops[0].TuplesOut != 5 || ops[1].TuplesIn != 5 {
		t.Errorf("tuple counts: %+v", ops)
	}
}

// TestAggregateOpsByID pins the fold every reader of JobStats shares:
// rows are keyed by operator ID (two operators with one name stay
// apart), come out in ID order whatever order instances finished in or
// were merged from other processes, sum counts and keep the slowest
// instance's wall time.
func TestAggregateOpsByID(t *testing.T) {
	local := &JobStats{BytesShuffled: 10, NetMessages: 1, Spans: []OpSpan{
		{ID: 2, Op: "Join", Node: 0, WallNs: 50, BusyNs: 40, TuplesIn: 8, TuplesOut: 2},
		{ID: 0, Op: "Scan", Part: 0, Node: 0, WallNs: 100, BusyNs: 80, TuplesOut: 4, SpillRuns: 1, SpilledBytes: 64},
		{ID: 1, Op: "Scan", Part: 0, Node: 0, WallNs: 30, BusyNs: 30, TuplesOut: 4},
	}}
	local.Merge(&JobStats{WallNs: 999, BytesShuffled: 5, NetMessages: 2, Spans: []OpSpan{
		{ID: 1, Op: "Scan", Part: 1, Node: 1, WallNs: 70, BusyNs: 60, TuplesOut: 3},
		{ID: 0, Op: "Scan", Part: 1, Node: 1, WallNs: 150, BusyNs: 120, TuplesOut: 6, FramesSent: 2, BytesMoved: 33},
	}})
	local.Merge(nil)
	want := []OpStats{
		{ID: 0, Name: "Scan", Instances: 2, TuplesOut: 10, BusyNs: 200, WallNs: 150, FramesSent: 2, BytesMoved: 33, SpillRuns: 1, SpilledBytes: 64},
		{ID: 1, Name: "Scan", Instances: 2, TuplesOut: 7, BusyNs: 90, WallNs: 70},
		{ID: 2, Name: "Join", Instances: 1, TuplesIn: 8, TuplesOut: 2, BusyNs: 40, WallNs: 50},
	}
	if got := AggregateOps(local.Spans); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("AggregateOps:\n got %+v\nwant %+v", got, want)
	}
	if local.WallNs != 0 || local.BytesShuffled != 15 || local.NetMessages != 3 {
		t.Errorf("merged totals: %+v", local)
	}
	if b, n, tot := local.MaxNodeBusyNs(), local.MaxNodeTuples(), local.TotalBusyNs(); b != 180 || n != 10 || tot != 330 {
		t.Errorf("MaxNodeBusyNs %d MaxNodeTuples %d TotalBusyNs %d, want 180 10 330", b, n, tot)
	}
	if runs, bytes := local.SpillTotals(); runs != 1 || bytes != 64 {
		t.Errorf("SpillTotals = %d, %d", runs, bytes)
	}
}

func TestFlatMapSelect(t *testing.T) {
	job := &Job{}
	src := job.Add("Src", 2, partitionedSource([][]int64{{1, 2, 3, 4}, {5, 6, 7, 8}}))
	sel := job.Add("Select", 2, FlatMap(func(ctx *TaskCtx, tu Tuple, emit func(Tuple)) error {
		if tu[0].Int()%2 == 0 {
			emit(tu)
		}
		return nil
	}), Input{From: src, Conn: ConnectorSpec{Type: OneToOne}})
	var c Collector
	sinkTo(job, &c, Input{From: sel, Conn: ConnectorSpec{Type: GatherOne}})
	if _, err := Run(context.Background(), job, topo(2, 1)); err != nil {
		t.Fatal(err)
	}
	got := sorted(collectInts(t, &c, 0))
	if fmt.Sprint(got) != fmt.Sprint([]int64{2, 4, 6, 8}) {
		t.Errorf("got %v", got)
	}
}

func TestHashConnectorPartitionsByKey(t *testing.T) {
	// Count per-partition arrivals: same key must land on same partition.
	job := &Job{}
	src := job.Add("Src", 2, partitionedSource([][]int64{{1, 2, 1, 3}, {2, 1, 3, 3}}))
	var seen [2][]int64
	var mu [2]chan struct{} // not needed; instances single-threaded
	_ = mu
	rec := job.Add("Rec", 2, FlatMap(func(ctx *TaskCtx, tu Tuple, emit func(Tuple)) error {
		seen[ctx.Part] = append(seen[ctx.Part], tu[0].Int())
		emit(tu)
		return nil
	}), Input{From: src, Conn: ConnectorSpec{Type: Hash, HashCols: []int{0}}})
	var c Collector
	sinkTo(job, &c, Input{From: rec, Conn: ConnectorSpec{Type: GatherOne}})
	if _, err := Run(context.Background(), job, topo(2, 1)); err != nil {
		t.Fatal(err)
	}
	// Every occurrence of a key must be in exactly one partition's list.
	where := map[int64]int{}
	for p := 0; p < 2; p++ {
		for _, v := range seen[p] {
			if prev, ok := where[v]; ok && prev != p {
				t.Fatalf("key %d appeared on partitions %d and %d", v, prev, p)
			}
			where[v] = p
		}
	}
	if got := sorted(collectInts(t, &c, 0)); len(got) != 8 {
		t.Errorf("lost tuples: %v", got)
	}
}

func TestBroadcastConnector(t *testing.T) {
	job := &Job{}
	src := job.Add("Src", 2, partitionedSource([][]int64{{1}, {2}}))
	var count atomic.Int64
	rec := job.Add("Rec", 3, FlatMap(func(ctx *TaskCtx, tu Tuple, emit func(Tuple)) error {
		count.Add(1)
		emit(tu)
		return nil
	}), Input{From: src, Conn: ConnectorSpec{Type: Broadcast}})
	var c Collector
	sinkTo(job, &c, Input{From: rec, Conn: ConnectorSpec{Type: GatherOne}})
	stats, err := Run(context.Background(), job, topo(3, 1))
	if err != nil {
		t.Fatal(err)
	}
	if count.Load() != 6 { // 2 tuples × 3 consumers
		t.Errorf("broadcast delivered %d, want 6", count.Load())
	}
	if stats.BytesShuffled == 0 {
		t.Error("cross-node broadcast should count bytes")
	}
}

func TestSortAndMergeOneConnector(t *testing.T) {
	job := &Job{}
	src := job.Add("Src", 2, partitionedSource([][]int64{{5, 1, 3}, {4, 2, 6}}))
	srt := job.Add("Sort", 2, pushOp(func(ctx *TaskCtx, emit func(Tuple) error) Push { return Sort(ctx, []SortCol{{Col: 0}}, emit) }),
		Input{From: src, Conn: ConnectorSpec{Type: OneToOne}})
	var c Collector
	sinkTo(job, &c, Input{From: srt, Conn: ConnectorSpec{Type: MergeOne, SortCols: []SortCol{{Col: 0}}}})
	if _, err := Run(context.Background(), job, topo(2, 1)); err != nil {
		t.Fatal(err)
	}
	got := collectInts(t, &c, 0)
	if fmt.Sprint(got) != fmt.Sprint([]int64{1, 2, 3, 4, 5, 6}) {
		t.Errorf("merge order: %v", got)
	}
}

func TestSortDescending(t *testing.T) {
	job := &Job{}
	src := job.Add("Src", 1, partitionedSource([][]int64{{1, 3, 2}}))
	srt := job.Add("Sort", 1, pushOp(func(ctx *TaskCtx, emit func(Tuple) error) Push {
		return Sort(ctx, []SortCol{{Col: 0, Desc: true}}, emit)
	}),
		Input{From: src, Conn: ConnectorSpec{Type: OneToOne}})
	var c Collector
	sinkTo(job, &c, Input{From: srt, Conn: ConnectorSpec{Type: GatherOne}})
	if _, err := Run(context.Background(), job, topo(1, 1)); err != nil {
		t.Fatal(err)
	}
	if got := collectInts(t, &c, 0); fmt.Sprint(got) != fmt.Sprint([]int64{3, 2, 1}) {
		t.Errorf("desc sort: %v", got)
	}
}

func TestHashGroupWithAggregates(t *testing.T) {
	job := &Job{}
	// (key, val): values grouped by key % partitioning.
	src := job.Add("Src", 2, func(ctx *TaskCtx, in []*PortReader, out []*Emitter) error {
		data := [][][2]int64{
			{{1, 10}, {2, 20}, {1, 30}},
			{{2, 40}, {3, 50}, {1, 60}},
		}
		for _, kv := range data[ctx.Part] {
			out[0].Emit(intTuple(kv[0], kv[1]))
		}
		return nil
	})
	grp := job.Add("HashGroup", 2, pushOp(func(ctx *TaskCtx, emit func(Tuple) error) Push {
		return HashGroup(ctx, []int{0}, []AggSpec{
			{Kind: AggCount},
			{Kind: AggSum, In: 1},
			{Kind: AggMin, In: 1},
			{Kind: AggMax, In: 1},
			{Kind: AggListify, In: 1},
		}, emit)
	}), Input{From: src, Conn: ConnectorSpec{Type: Hash, HashCols: []int{0}}})
	var c Collector
	sinkTo(job, &c, Input{From: grp, Conn: ConnectorSpec{Type: GatherOne}})
	if _, err := Run(context.Background(), job, topo(2, 1)); err != nil {
		t.Fatal(err)
	}
	got := map[int64][4]int64{}
	listLens := map[int64]int{}
	for _, tu := range c.Tuples {
		got[tu[0].Int()] = [4]int64{tu[1].Int(), tu[2].Int(), tu[3].Int(), tu[4].Int()}
		listLens[tu[0].Int()] = len(tu[5].Elems())
	}
	want := map[int64][4]int64{
		1: {3, 100, 10, 60},
		2: {2, 60, 20, 40},
		3: {1, 50, 50, 50},
	}
	for k, w := range want {
		if got[k] != w {
			t.Errorf("group %d = %v, want %v", k, got[k], w)
		}
		if listLens[k] != int(w[0]) {
			t.Errorf("group %d listify len %d, want %d", k, listLens[k], w[0])
		}
	}
}

func TestSortGroupMatchesHashGroup(t *testing.T) {
	build := func(group runFunc) []Tuple {
		job := &Job{}
		src := job.Add("Src", 1, func(ctx *TaskCtx, in []*PortReader, out []*Emitter) error {
			for _, kv := range [][2]int64{{2, 1}, {1, 5}, {2, 3}, {1, 7}, {3, 9}} {
				out[0].Emit(intTuple(kv[0], kv[1]))
			}
			return nil
		})
		grp := job.Add("Group", 1, group, Input{From: src, Conn: ConnectorSpec{Type: OneToOne}})
		var c Collector
		sinkTo(job, &c, Input{From: grp, Conn: ConnectorSpec{Type: GatherOne}})
		if _, err := Run(context.Background(), job, topo(1, 1)); err != nil {
			t.Fatal(err)
		}
		sortTuples(c.Tuples, []SortCol{{Col: 0}})
		return c.Tuples
	}
	aggs := []AggSpec{{Kind: AggCount}, {Kind: AggSum, In: 1}}
	h := build(pushOp(func(ctx *TaskCtx, emit func(Tuple) error) Push { return HashGroup(ctx, []int{0}, aggs, emit) }))
	s := build(pushOp(func(ctx *TaskCtx, emit func(Tuple) error) Push { return SortGroup(ctx, []int{0}, aggs, emit) }))
	if len(h) != len(s) {
		t.Fatalf("row counts differ: %d vs %d", len(h), len(s))
	}
	for i := range h {
		for col := 0; col < 3; col++ {
			if !adm.Equal(h[i][col], s[i][col]) {
				t.Errorf("row %d col %d: hash %v, sort %v", i, col, h[i][col], s[i][col])
			}
		}
	}
}

func TestHashJoin(t *testing.T) {
	job := &Job{}
	left := job.Add("L", 2, partitionedSource([][]int64{{1, 2}, {3, 4}}))
	right := job.Add("R", 2, partitionedSource([][]int64{{2, 3}, {3, 5}}))
	join := job.Add("HashJoin", 2, joinOp(func(ctx *TaskCtx, emit func(b, p Tuple) error) JoinPush {
		return HashJoin(ctx, []int{0}, []int{0}, nil, emit)
	}),
		Input{From: left, Conn: ConnectorSpec{Type: Hash, HashCols: []int{0}}},
		Input{From: right, Conn: ConnectorSpec{Type: Hash, HashCols: []int{0}}})
	var c Collector
	sinkTo(job, &c, Input{From: join, Conn: ConnectorSpec{Type: GatherOne}})
	if _, err := Run(context.Background(), job, topo(2, 1)); err != nil {
		t.Fatal(err)
	}
	var pairs [][2]int64
	for _, tu := range c.Tuples {
		pairs = append(pairs, [2]int64{tu[0].Int(), tu[1].Int()})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i][0] < pairs[j][0] })
	want := [][2]int64{{2, 2}, {3, 3}, {3, 3}}
	if fmt.Sprint(pairs) != fmt.Sprint(want) {
		t.Errorf("join pairs = %v, want %v", pairs, want)
	}
}

func TestNestedLoopJoinWithPredicate(t *testing.T) {
	job := &Job{}
	left := job.Add("L", 1, partitionedSource([][]int64{{1, 2, 3}}))
	right := job.Add("R", 2, partitionedSource([][]int64{{10, 20}, {30}}))
	// The predicate sees build ++ probe: column 0 is the build's, 1 the probe's.
	join := job.Add("NLJoin", 2, joinOp(func(ctx *TaskCtx, emit func(b, p Tuple) error) JoinPush {
		return NestedLoopJoin(ctx, func(row Tuple) (bool, error) {
			return row[1].Int()/10 == row[0].Int(), nil
		}, emit)
	}),
		Input{From: left, Conn: ConnectorSpec{Type: Broadcast}},
		Input{From: right, Conn: ConnectorSpec{Type: OneToOne}})
	var c Collector
	sinkTo(job, &c, Input{From: join, Conn: ConnectorSpec{Type: GatherOne}})
	if _, err := Run(context.Background(), job, topo(2, 1)); err != nil {
		t.Fatal(err)
	}
	if len(c.Tuples) != 3 {
		t.Errorf("NL join rows = %d, want 3", len(c.Tuples))
	}
}

func TestUnionAndReplicate(t *testing.T) {
	job := &Job{}
	rep := job.Add("Src+Replicate", 2, fanOutOf(func(ctx *TaskCtx) []Tuple {
		return [][]Tuple{{intTuple(1), intTuple(2)}, {intTuple(3)}}[ctx.Part]
	}))
	rep.OutPorts = 2
	evens := job.Add("SelEven", 2, FlatMap(func(ctx *TaskCtx, tu Tuple, emit func(Tuple)) error {
		if tu[0].Int()%2 == 0 {
			emit(tu)
		}
		return nil
	}), Input{From: rep, FromPort: 0, Conn: ConnectorSpec{Type: OneToOne}})
	odds := job.Add("SelOdd", 2, FlatMap(func(ctx *TaskCtx, tu Tuple, emit func(Tuple)) error {
		if tu[0].Int()%2 == 1 {
			emit(tu)
		}
		return nil
	}), Input{From: rep, FromPort: 1, Conn: ConnectorSpec{Type: OneToOne}})
	un := job.Add("Union", 2, unionOf,
		Input{From: evens, Conn: ConnectorSpec{Type: OneToOne}},
		Input{From: odds, Conn: ConnectorSpec{Type: OneToOne}})
	var c Collector
	sinkTo(job, &c, Input{From: un, Conn: ConnectorSpec{Type: GatherOne}})
	if _, err := Run(context.Background(), job, topo(2, 1)); err != nil {
		t.Fatal(err)
	}
	if got := sorted(collectInts(t, &c, 0)); fmt.Sprint(got) != fmt.Sprint([]int64{1, 2, 3}) {
		t.Errorf("union = %v", got)
	}
}

func TestAggregate(t *testing.T) {
	job := &Job{}
	src := job.Add("Src", 2, partitionedSource([][]int64{{1, 2, 3}, {4, 5}}))
	agg := job.Add("Agg", 1, pushOp(func(_ *TaskCtx, emit func(Tuple) error) Push {
		return Aggregate([]AggSpec{{Kind: AggCount}, {Kind: AggSum, In: 0}, {Kind: AggAvg, In: 0}}, AggWhole, emit)
	}),
		Input{From: src, Conn: ConnectorSpec{Type: GatherOne}})
	var c Collector
	sinkTo(job, &c, Input{From: agg, Conn: ConnectorSpec{Type: GatherOne}})
	if _, err := Run(context.Background(), job, topo(2, 1)); err != nil {
		t.Fatal(err)
	}
	if len(c.Tuples) != 1 {
		t.Fatalf("aggregate rows = %d", len(c.Tuples))
	}
	tu := c.Tuples[0]
	if tu[0].Int() != 5 || tu[1].Int() != 15 || tu[2].Double() != 3 {
		t.Errorf("aggregate = %v", tu)
	}
}

func TestOperatorErrorCancelsJob(t *testing.T) {
	job := &Job{}
	src := job.Add("Src", 1, rangeSource(1_000_000))
	boom := errors.New("boom")
	bad := job.Add("Bad", 1, FlatMap(func(ctx *TaskCtx, tu Tuple, emit func(Tuple)) error {
		if tu[0].Int() == 10 {
			return boom
		}
		emit(tu)
		return nil
	}), Input{From: src, Conn: ConnectorSpec{Type: OneToOne}})
	var c Collector
	sinkTo(job, &c, Input{From: bad, Conn: ConnectorSpec{Type: GatherOne}})
	_, err := Run(context.Background(), job, topo(1, 1))
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
}

func TestContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	job := &Job{}
	src := job.Add("Src", 1, func(tc *TaskCtx, in []*PortReader, out []*Emitter) error {
		for i := int64(0); ; i++ {
			if tc.Ctx.Err() != nil {
				return tc.Ctx.Err()
			}
			out[0].Emit(intTuple(i))
			if i == 100 {
				cancel()
			}
		}
	})
	var c Collector
	sinkTo(job, &c, Input{From: src, Conn: ConnectorSpec{Type: GatherOne}})
	if _, err := Run(ctx, job, topo(1, 1)); err == nil {
		t.Fatal("cancelled job should error")
	}
}

func TestValidationErrors(t *testing.T) {
	// OneToOne with mismatched partitions.
	job := &Job{}
	src := job.Add("Src", 2, partitionedSource([][]int64{{1}, {2}}))
	bad := job.Add("Bad", 3, FlatMap(func(ctx *TaskCtx, tu Tuple, emit func(Tuple)) error { return nil }),
		Input{From: src, Conn: ConnectorSpec{Type: OneToOne}})
	_ = bad
	if _, err := Run(context.Background(), job, topo(3, 1)); err == nil {
		t.Error("mismatched OneToOne should fail validation")
	}

	// Unconnected output port.
	job2 := &Job{}
	job2.Add("Orphan", 1, rangeSource(1))
	if _, err := Run(context.Background(), job2, topo(1, 1)); err == nil {
		t.Error("unconnected output should fail validation")
	}

	// Gather into multi-instance consumer.
	job3 := &Job{}
	s3 := job3.Add("Src", 2, partitionedSource([][]int64{{1}, {2}}))
	j3 := job3.Add("C", 2, unionOf, Input{From: s3, Conn: ConnectorSpec{Type: GatherOne}})
	_ = j3
	if _, err := Run(context.Background(), job3, topo(2, 1)); err == nil {
		t.Error("GatherOne into 2 instances should fail validation")
	}
}

func TestNetworkAccountingLocalVsRemote(t *testing.T) {
	run := func(partsPerNode int) int64 {
		job := &Job{}
		src := job.Add("Src", 2, partitionedSource([][]int64{{1, 2, 3}, {4, 5, 6}}))
		re := job.Add("Re", 2, unionOf, Input{From: src, Conn: ConnectorSpec{Type: OneToOne}})
		var c Collector
		sinkTo(job, &c, Input{From: re, Conn: ConnectorSpec{Type: GatherOne}})
		stats, err := Run(context.Background(), job, Topology{Partitions: 2, PartsPerNode: partsPerNode})
		if err != nil {
			t.Fatal(err)
		}
		return stats.BytesShuffled
	}
	// Both partitions on one node: OneToOne and Gather all node-local.
	if b := run(2); b != 0 {
		t.Errorf("single-node job shuffled %d bytes", b)
	}
	// One partition per node: partition 1's gather crosses nodes.
	if b := run(1); b == 0 {
		t.Error("cross-node gather should count bytes")
	}
}

// TestReplicateInterdependentPortsNoDeadlock reproduces the plan shape
// that once deadlocked: one port of a fan-out feeds a hash join's probe
// side while another port (through more work) feeds its build side. If
// the fan-out held every port's end-of-stream until all ports finished,
// the probe backpressure would block the build's tail forever. Each
// port must close independently.
func TestReplicateInterdependentPortsNoDeadlock(t *testing.T) {
	job := &Job{}
	// Enough tuples to overrun the frame/channel buffering many times.
	const n = 100_000
	rep := job.Add("Src+Replicate", 2, fanOutOf(func(*TaskCtx) []Tuple {
		rows := make([]Tuple, n)
		for i := range rows {
			rows[i] = intTuple(int64(i), int64(i%97))
		}
		return rows
	}))
	rep.OutPorts = 2
	// Build side: aggregate port 0 down to distinct keys (takes a while
	// and only finishes when port 0 fully closes).
	buildGroup := job.Add("HashGroup", 2, pushOp(func(ctx *TaskCtx, emit func(Tuple) error) Push {
		return HashGroup(ctx, []int{1}, []AggSpec{{Kind: AggCount}}, emit)
	}),
		Input{From: rep, FromPort: 0, Conn: ConnectorSpec{Type: Hash, HashCols: []int{1}}})
	// Probe side: port 1 directly. The join reads build first, so this
	// stream backs up completely.
	join := job.Add("HashJoin", 2, joinOp(func(ctx *TaskCtx, emit func(b, p Tuple) error) JoinPush {
		return HashJoin(ctx, []int{0}, []int{1}, nil, emit)
	}),
		Input{From: buildGroup, Conn: ConnectorSpec{Type: Hash, HashCols: []int{0}}},
		Input{From: rep, FromPort: 1, Conn: ConnectorSpec{Type: Hash, HashCols: []int{1}}})
	agg := job.Add("Agg", 1, pushOp(func(_ *TaskCtx, emit func(Tuple) error) Push {
		return Aggregate([]AggSpec{{Kind: AggCount}}, AggWhole, emit)
	}),
		Input{From: join, Conn: ConnectorSpec{Type: GatherOne}})
	var c Collector
	sinkTo(job, &c, Input{From: agg, Conn: ConnectorSpec{Type: GatherOne}})

	done := make(chan error, 1)
	go func() {
		_, err := Run(context.Background(), job, topo(2, 1))
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("job deadlocked")
	}
	if len(c.Tuples) != 1 || c.Tuples[0][0].Int() != 2*n {
		t.Errorf("join rows = %v, want %d", c.Tuples, 2*n)
	}
}

// FlatMap builds a stateless per-tuple test operator: fn emits zero or
// more output tuples for each input tuple.
func FlatMap(fn func(ctx *TaskCtx, t Tuple, emit func(Tuple)) error) runFunc {
	return func(ctx *TaskCtx, in []*PortReader, out []*Emitter) error {
		emit := func(t Tuple) { out[0].Emit(t) }
		for {
			t, ok := in[0].Next()
			if !ok {
				return ctx.Ctx.Err()
			}
			if err := fn(ctx, t, emit); err != nil {
				return err
			}
		}
	}
}

// pushOp runs the push form mk makes as the one stage of a test node
// over port 0, as a pipeline runs it: a row at a time, then the end.
func pushOp(mk func(ctx *TaskCtx, emit func(Tuple) error) Push) runFunc {
	return func(ctx *TaskCtx, in []*PortReader, out []*Emitter) error {
		f := mk(ctx, func(t Tuple) error {
			out[0].Emit(t)
			return nil
		})
		defer f.Close()
		if err := feedPort(in[0], f.Add); err != nil {
			return err
		}
		return f.End()
	}
}

// joinOp runs the join form mk makes in a test node: port 0 is its build
// side, port 1 its probe side, and it emits build ++ probe.
func joinOp(mk func(ctx *TaskCtx, emit func(b, p Tuple) error) JoinPush) runFunc {
	return func(ctx *TaskCtx, in []*PortReader, out []*Emitter) error {
		j := mk(ctx, func(b, p Tuple) error {
			out[0].Emit(append(b.Clone(), p...))
			return nil
		})
		defer j.Close()
		if err := feedPort(in[0], j.AddBuild); err != nil {
			return err
		}
		if err := j.EndBuild(); err != nil {
			return err
		}
		if err := feedPort(in[1], j.Add); err != nil {
			return err
		}
		return j.End()
	}
}

// feedPort hands every row of the port to add, then reports whether the
// job was cancelled.
func feedPort(r *PortReader, add func(Tuple) error) error {
	for {
		t, ok := r.Next()
		if !ok {
			return r.ctx.Err()
		}
		if err := add(t); err != nil {
			return err
		}
	}
}
