package hyracks

import (
	"sync"
	"sync/atomic"

	"simdb/internal/adm"
)

// The runtime operator library. Every operator of the paper's plans is
// here; expression logic arrives as closures compiled by the algebra
// layer, so the runtime stays independent of the query language.

// Sort consumes all input, sorts it by cols, and emits it. Per
// partition; a MergeOne connector downstream extends the order across
// partitions. Under a memory budget it runs as an external merge sort —
// sorted runs spill to disk and a stable k-way merge produces the
// output — so the sort stays stable and byte-identical to the in-memory
// path at any budget.
func Sort(cols []SortCol) func() Operator {
	return func() Operator {
		return OpFunc(func(ctx *TaskCtx, in []*PortReader, out []*Emitter) error {
			return externalSort(ctx, in[0], cols, func(t Tuple) error {
				out[0].Emit(t)
				return ctx.Ctx.Err()
			})
		})
	}
}

// Rank emits each tuple's cols followed by its 1-based int64 position in
// arrival order. Run it single-instance after a MergeOne connector to
// implement AQL's positional "at" variable over a globally ordered
// stream.
func Rank(cols []int) func() Operator {
	return func() Operator {
		return OpFunc(func(ctx *TaskCtx, in []*PortReader, out []*Emitter) error {
			var i int64
			for {
				t, ok := in[0].Next()
				if !ok {
					return ctx.Ctx.Err()
				}
				i++
				nt := make(Tuple, len(cols)+1)
				for j, c := range cols {
					nt[j] = t[c]
				}
				nt[len(cols)] = adm.NewInt(i)
				out[0].Emit(nt)
			}
		})
	}
}

// Limit emits at most n tuples then stops reading.
func Limit(n int64) func() Operator {
	return func() Operator {
		return OpFunc(func(ctx *TaskCtx, in []*PortReader, out []*Emitter) error {
			var c int64
			for c < n {
				t, ok := in[0].Next()
				if !ok {
					break
				}
				out[0].Emit(t)
				c++
			}
			return ctx.Ctx.Err()
		})
	}
}

// AggKind enumerates aggregate functions for group-by and scalar
// aggregation.
type AggKind int

// Aggregate kinds. Listify collects values into an ordered list (the
// "with $v" semantics of AQL group-by); First keeps the first value.
const (
	AggCount AggKind = iota
	AggSum
	AggMin
	AggMax
	AggAvg
	AggListify
	AggFirst
)

// AggSpec aggregates input column In into an output column.
type AggSpec struct {
	Kind AggKind
	In   int // input column; ignored for AggCount
}

type aggState struct {
	count int64
	sum   float64
	sumI  int64
	isInt bool
	min   adm.Value
	max   adm.Value
	list  []adm.Value
	first adm.Value
	has   bool
}

func (a *aggState) add(spec AggSpec, t Tuple) {
	switch spec.Kind {
	case AggCount:
		a.count++
	case AggSum, AggAvg:
		v := t[spec.In]
		if f, ok := v.Num(); ok {
			a.count++
			a.sum += f
			if v.Kind() == adm.KindInt {
				a.sumI += v.Int()
			} else {
				a.isInt = false
			}
			if !a.has {
				a.isInt = v.Kind() == adm.KindInt
				a.has = true
			} else if v.Kind() != adm.KindInt {
				a.isInt = false
			}
		}
	case AggMin:
		v := t[spec.In]
		if !a.has || adm.Less(v, a.min) {
			a.min = v
			a.has = true
		}
	case AggMax:
		v := t[spec.In]
		if !a.has || adm.Less(a.max, v) {
			a.max = v
			a.has = true
		}
	case AggListify:
		a.list = append(a.list, t[spec.In])
	case AggFirst:
		if !a.has {
			a.first = t[spec.In]
			a.has = true
		}
	}
}

func (a *aggState) result(spec AggSpec) adm.Value {
	switch spec.Kind {
	case AggCount:
		return adm.NewInt(a.count)
	case AggSum:
		if !a.has {
			return adm.Null
		}
		if a.isInt {
			return adm.NewInt(a.sumI)
		}
		return adm.NewDouble(a.sum)
	case AggAvg:
		if a.count == 0 {
			return adm.Null
		}
		return adm.NewDouble(a.sum / float64(a.count))
	case AggMin:
		if !a.has {
			return adm.Null
		}
		return a.min
	case AggMax:
		if !a.has {
			return adm.Null
		}
		return a.max
	case AggListify:
		return adm.NewList(a.list)
	case AggFirst:
		if !a.has {
			return adm.Null
		}
		return a.first
	}
	return adm.Null
}

// merge folds o into a, where a aggregated tuples that all arrived
// before o's (the spilling group-by merges a partition's resident state
// with the re-aggregated state of its later, spilled tuples).
func (a *aggState) merge(spec AggSpec, o *aggState) {
	switch spec.Kind {
	case AggCount:
		a.count += o.count
	case AggSum, AggAvg:
		if !o.has {
			return
		}
		if !a.has {
			*a = *o
			return
		}
		a.count += o.count
		a.sum += o.sum
		a.sumI += o.sumI
		a.isInt = a.isInt && o.isInt
	case AggMin:
		if o.has && (!a.has || adm.Less(o.min, a.min)) {
			a.min = o.min
			a.has = true
		}
	case AggMax:
		if o.has && (!a.has || adm.Less(a.max, o.max)) {
			a.max = o.max
			a.has = true
		}
	case AggListify:
		a.list = append(a.list, o.list...)
	case AggFirst:
		if !a.has && o.has {
			a.first = o.first
			a.has = true
		}
	}
}

// HashGroup groups input by the key columns using a hash table and
// emits one tuple per group: key columns followed by one column per
// aggregate. Input must already be partitioned by the keys (Hash
// connector) for global correctness; the "/*+ hash */" hint of the
// paper's stage 1 maps here.
// Under a memory budget, HashGroup spills: tuples hash into partitions,
// and a partition whose table can no longer grow keeps its aggregated
// groups resident while routing further raw tuples to a run file; the
// run re-aggregates recursively and merges with the retained state.
func HashGroup(keys []int, aggs []AggSpec) func() Operator {
	return func() Operator {
		return OpFunc(func(ctx *TaskCtx, in []*PortReader, out []*Emitter) error {
			g := ctx.Grant()
			defer g.ReleaseAll()
			e := &groupByExec{
				ctx: ctx, g: g, keys: keys, specs: aggs,
				emit: func(t Tuple) error {
					out[0].Emit(t)
					return nil
				},
			}
			if err := e.run(&portStream{r: in[0]}, 0, nil); err != nil {
				return err
			}
			return ctx.Ctx.Err()
		})
	}
}

// SortGroup is the sort-based group-by: it requires input ordered by
// the key columns and streams one output tuple per key run. It is the
// default AsterixDB aggregation the paper's "/*+ hash */" hint replaces.
func SortGroup(keys []int, aggs []AggSpec) func() Operator {
	return func() Operator {
		return OpFunc(func(ctx *TaskCtx, in []*PortReader, out []*Emitter) error {
			var curKey Tuple
			var states []aggState
			flush := func() {
				if curKey == nil {
					return
				}
				row := make(Tuple, 0, len(keys)+len(aggs))
				row = append(row, curKey...)
				for i, spec := range aggs {
					row = append(row, states[i].result(spec))
				}
				out[0].Emit(row)
			}
			for {
				t, ok := in[0].Next()
				if !ok {
					break
				}
				// A new key run starts where a key column differs; only then
				// is the key copied out of the tuple.
				same := curKey != nil
				for i := 0; same && i < len(keys); i++ {
					same = adm.Compare(t[keys[i]], curKey[i]) == 0
				}
				if !same {
					flush()
					curKey = make(Tuple, len(keys))
					for i, k := range keys {
						curKey[i] = t[k]
					}
					states = make([]aggState, len(aggs))
				}
				for i, spec := range aggs {
					states[i].add(spec, t)
				}
			}
			flush()
			return ctx.Ctx.Err()
		})
	}
}

// Aggregate computes scalar aggregates over its entire input and emits
// exactly one tuple. Run single-instance below a GatherOne connector,
// or per-partition as a local pre-aggregation.
func Aggregate(aggs []AggSpec) func() Operator {
	return func() Operator {
		return OpFunc(func(ctx *TaskCtx, in []*PortReader, out []*Emitter) error {
			states := make([]aggState, len(aggs))
			for {
				t, ok := in[0].Next()
				if !ok {
					break
				}
				for i, spec := range aggs {
					states[i].add(spec, t)
				}
			}
			row := make(Tuple, len(aggs))
			for i, spec := range aggs {
				row[i] = states[i].result(spec)
			}
			out[0].Emit(row)
			return ctx.Ctx.Err()
		})
	}
}

// HashJoin builds a hash table on input port 0 and probes it with port
// 1, emitting build ++ probe concatenations for key-equal pairs. Keys
// compare with adm equality (null keys never match). Both inputs must
// be partitioned compatibly (Hash/Hash or Broadcast build).
// Under a memory budget, HashJoin runs as a hybrid hash join: build
// partitions that outgrow the budget spill to disk (largest-resident
// first), their probe tuples are deferred to probe runs, and each
// spilled pair joins recursively — degrading to a block-nested-loop
// pass for data hashing cannot split. keep, when non-nil, is offered
// each instance's table once its probe is done, if no part of the build
// side spilled; a table it takes is handed to HashJoinKept by later jobs
// and must not change.
func HashJoin(buildKeys, probeKeys []int, keep func(part int, t *JoinTable) bool) func() Operator {
	return func() Operator {
		return OpFunc(func(ctx *TaskCtx, in []*PortReader, out []*Emitter) error {
			g := ctx.Grant()
			defer g.ReleaseAll()
			e := &hashJoinExec{
				ctx: ctx, g: g, buildKeys: buildKeys, probeKeys: probeKeys, keep: keep,
				emit: func(t Tuple) error {
					out[0].Emit(t)
					return nil
				},
			}
			if err := e.run(&portStream{r: in[0]}, &portStream{r: in[1]}, 0); err != nil {
				return err
			}
			return ctx.Ctx.Err()
		})
	}
}

// HashJoinKept is the probe half of a HashJoin whose build half ran in
// an earlier job: it probes the table a HashJoin kept with its one input
// port and emits what that HashJoin would have, build ++ probe for
// key-equal pairs. table returns the table partition part probes.
func HashJoinKept(table func(part int) *JoinTable, probeKeys []int) func() Operator {
	return func() Operator {
		return OpFunc(func(ctx *TaskCtx, in []*PortReader, out []*Emitter) error {
			e := &hashJoinExec{
				ctx: ctx, probeKeys: probeKeys,
				emit: func(t Tuple) error {
					out[0].Emit(t)
					return nil
				},
			}
			_, err := e.probe(table(ctx.Part), make([]*runSink, fanout), &portStream{r: in[0]}, 0)
			return err
		})
	}
}

// NestedLoopJoin materializes input port 0 and, for each tuple of port
// 1, emits build ++ probe rows satisfying pred. pred sees a pair as that
// concatenation in a scratch row the instance reuses, so it may read the
// row only while it runs; a nil pred joins every pair (a cross product).
// Under a memory budget, the build side overflows to a spill run; the
// spilled path then joins in probe blocks (block-nested-loop), re-
// scanning the build buffer once per block instead of once per tuple.
func NestedLoopJoin(pred func(row Tuple) (bool, error)) func() Operator {
	return func() Operator {
		return OpFunc(func(ctx *TaskCtx, in []*PortReader, out []*Emitter) error {
			g := ctx.Grant()
			defer g.ReleaseAll()
			build := newSpillableBuffer(ctx, g, "nlj-build")
			defer build.close()
			for {
				t, ok := in[0].Next()
				if !ok {
					break
				}
				if err := build.add(t); err != nil {
					return err
				}
			}
			if err := build.finish(); err != nil {
				return err
			}
			var scratch Tuple
			joinPair := func(b, t Tuple) error {
				if pred != nil {
					scratch = append(append(scratch[:0], b...), t...)
					ok, err := pred(scratch)
					if err != nil || !ok {
						return err
					}
				}
				row := make(Tuple, 0, len(b)+len(t))
				row = append(row, b...)
				row = append(row, t...)
				out[0].Emit(row)
				return nil
			}
			if !build.spilled() {
				// Everything resident: keep the legacy probe-major order.
				for {
					t, ok := in[1].Next()
					if !ok {
						return ctx.Ctx.Err()
					}
					for _, b := range build.mem {
						if err := joinPair(b, t); err != nil {
							return err
						}
					}
				}
			}
			// Spilled: batch probe tuples into budget-sized blocks and make
			// one pass over the build buffer (disk suffix included) per
			// block, so build I/O is amortized across the block.
			var (
				block    []Tuple
				blockMem int64
			)
			flush := func() error {
				if len(block) == 0 {
					return nil
				}
				err := build.each(func(b Tuple) error {
					for _, t := range block {
						if err := joinPair(b, t); err != nil {
							return err
						}
					}
					return nil
				})
				block = nil
				g.Release(blockMem)
				blockMem = 0
				if err != nil {
					return err
				}
				return ctx.Ctx.Err()
			}
			for {
				t, ok := in[1].Next()
				if !ok {
					break
				}
				sz := TupleMemSize(t)
				if !g.Reserve(sz) {
					if err := flush(); err != nil {
						return err
					}
					if !g.Reserve(sz) {
						g.Force(sz)
					}
				}
				block = append(block, t)
				blockMem += sz
			}
			if err := flush(); err != nil {
				return err
			}
			return ctx.Ctx.Err()
		})
	}
}

// Union forwards every input port's tuples to the output (bag union,
// no dedup), reading ports sequentially.
func Union() func() Operator {
	return func() Operator {
		return OpFunc(func(ctx *TaskCtx, in []*PortReader, out []*Emitter) error {
			for _, port := range in {
				for {
					t, ok := port.Next()
					if !ok {
						break
					}
					out[0].Emit(t)
				}
			}
			return ctx.Ctx.Err()
		})
	}
}

// Replicate materializes its input, then emits the whole buffer to each
// of its output ports concurrently. Materialization (the paper's
// Figure 20 "Materialize" under "Replicate") makes the operator safe
// when its consumers depend on one another, as in the three-stage
// self-join where stage 1's output joins stage 2's.
func Replicate(outPorts int) func() Operator {
	_ = outPorts // documented at the OpNode level; Run uses len(out)
	return func() Operator {
		return OpFunc(func(ctx *TaskCtx, in []*PortReader, out []*Emitter) error {
			g := ctx.Grant()
			defer g.ReleaseAll()
			buf := newSpillableBuffer(ctx, g, "replicate")
			defer buf.close()
			for {
				t, ok := in[0].Next()
				if !ok {
					break
				}
				if err := buf.add(t); err != nil {
					return err
				}
			}
			if err := buf.finish(); err != nil {
				return err
			}
			if buf.spilled() {
				// Each port goroutine re-reads the overflow run through its
				// own reader; reserve their buffers before fanning out (the
				// grant is single-goroutine).
				need := int64(len(out)) * mergeStreamMem
				if !g.Reserve(need) {
					g.Force(need)
				}
			}
			errs := make([]error, len(out))
			var wg sync.WaitGroup
			for i, em := range out {
				i, em := i, em
				wg.Add(1)
				go func() {
					defer wg.Done()
					errs[i] = buf.each(func(t Tuple) error {
						em.Emit(t)
						return nil
					})
					// Close this port now: holding its end-of-stream
					// until every other port finishes can deadlock
					// consumers that depend on one another.
					em.Close()
				}()
			}
			wg.Wait()
			for _, err := range errs {
				if err != nil {
					return err
				}
			}
			return ctx.Ctx.Err()
		})
	}
}

// Collector is a sink gathering result tuples; create one per job and
// add its node with parts=1 below a GatherOne or MergeOne connector.
//
// With Sink set, the collector streams: every tuple is handed to Sink
// as it arrives instead of being buffered in Tuples, so a consumer sees
// the first row while upstream operators are still producing later
// ones. A Sink that blocks exerts backpressure through the connector's
// bounded frame channels — upstream buffering stays bounded by a frame
// multiple (DefaultChanCap × FrameSize per edge), never by the result size. A
// Sink error aborts the job and propagates out of Run.
type Collector struct {
	mu     sync.Mutex
	Tuples []Tuple
	// Sink, when non-nil, receives each tuple in result order instead of
	// buffering it. Set it before the job runs.
	Sink func(Tuple) error
	// Delivered counts tuples collected or streamed so far; readable
	// while the job runs.
	Delivered atomic.Int64
}

// Op returns the sink operator factory.
func (c *Collector) Op() func() Operator {
	return func() Operator {
		return OpFunc(func(ctx *TaskCtx, in []*PortReader, out []*Emitter) error {
			for {
				t, ok := in[0].Next()
				if !ok {
					return ctx.Ctx.Err()
				}
				if c.Sink != nil {
					if err := c.Sink(t); err != nil {
						return err
					}
				} else {
					c.mu.Lock()
					c.Tuples = append(c.Tuples, t)
					c.mu.Unlock()
				}
				c.Delivered.Add(1)
			}
		})
	}
}

// MakeSink adds a single-instance Collector sink node (no output
// ports) fed by input.
func MakeSink(j *Job, name string, c *Collector, input Input) *OpNode {
	n := j.Add(name, 1, c.Op(), input)
	n.OutPorts = 0
	return n
}
