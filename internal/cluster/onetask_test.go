package cluster

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"simdb/internal/adm"
	"simdb/internal/algebra"
	"simdb/internal/hyracks"
)

// hasStage reports whether a job node's name lists stage among the
// stages of its pipeline.
func hasStage(name, stage string) bool {
	return slices.Contains(strings.Split(name, "+"), stage)
}

// jobShape is the job generated for bp: its nodes, their instances, and
// whether any edge broadcasts or any node has a sort stage.
func jobShape(t *testing.T, c *Cluster, bp boundPlan) (nodes, instances int, broadcast, sorts bool) {
	t.Helper()
	for _, n := range jobNodes(t, c, bp) {
		nodes++
		instances += n.Parts
		sorts = sorts || hasStage(n.Name, "Sort")
		for _, in := range n.Inputs {
			broadcast = broadcast || in.Conn.Type == hyracks.Broadcast
		}
	}
	return nodes, instances, broadcast, sorts
}

// jobNodes generates the job for bp and returns its nodes.
func jobNodes(t *testing.T, c *Cluster, bp boundPlan) []*hyracks.OpNode {
	t.Helper()
	g, _, err := c.generateJob(bp, nil, true, 0)
	if err != nil {
		t.Fatal(err)
	}
	return g.job.Nodes()
}

// rewritePlan copies the path from op down to every operator f replaces
// (f returns nil to keep one and look below it), so a test can run a
// variant of a cached plan without writing the plan the cache shares.
func rewritePlan(op *algebra.Op, f func(*algebra.Op) *algebra.Op) *algebra.Op {
	if r := f(op); r != nil {
		return r
	}
	cp := *op
	cp.Inputs = make([]*algebra.Op, len(op.Inputs))
	for i, in := range op.Inputs {
		cp.Inputs[i] = rewritePlan(in, f)
	}
	return &cp
}

// runPlan runs bp on an inproc cluster and returns its result values.
func runPlan(t *testing.T, c *Cluster, bp boundPlan) []adm.Value {
	t.Helper()
	lj, err := c.newLocalJob(bp, nil, 0, 0, nil, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lj.run(context.Background()); err != nil {
		t.Fatal(err)
	}
	rows := make([]adm.Value, len(lj.collector.Tuples))
	for i, tu := range lj.collector.Tuples {
		rows[i] = tu[0]
	}
	return rows
}

// TestIndexedSelectionIsOneTask: an indexed selection is one node per
// partition, whose pipeline searches the index, looks the candidates up,
// verifies and projects, plus the gather of the result: the empty tuple
// is the pipeline's source and the search its first stage, the Order
// the plan keeps on the search's pks is elided because the search
// delivers them sorted, and the lookup is a stage. Over tcp the only
// messages are the gather's. A scan selection is the same two nodes,
// the scan the source. An index nested-loop join's search is a stage
// of a pipeline that reads its outer side through a broadcast port, and
// its sort and lookup are stages of the same pipeline; an order the
// input does not have is sorted; and a query cancelled mid-lookup
// releases its snapshots and its instances. The join's outer scan ends
// in a fan-out to the outer rows' two readers (6 nodes, 21 instances). A
// count and an order-by + limit end in one instance, which delivers the
// result itself: two nodes, five instances.
func TestIndexedSelectionIsOneTask(t *testing.T) {
	inproc, tcp := transportPair(t)
	for _, c := range []*Cluster{inproc, tcp} {
		exec(t, c, NewSession(), `create index eqkw on EqReviews(summary) type keyword;`)
		exec(t, c, NewSession(), `create index eqng on EqReviews(username) type ngram(2);`)
	}
	selections := []struct{ name, query string }{
		{"jaccard", `for $r in dataset EqReviews
			where similarity-jaccard(word-tokens($r.summary), word-tokens('great heart works')) >= 0.5
			return $r.id`},
		{"edit-distance", `for $r in dataset EqReviews where edit-distance($r.username, 'marla') <= 1 return $r.id`},
	}
	const scan = `for $r in dataset EqReviews
		where similarity-jaccard(word-tokens($r.username), word-tokens('marla')) >= 0.5
		return $r.id`
	const inlj = `set simfunction 'jaccard'; set simthreshold '0.5';
		for $a in dataset EqReviews for $b in dataset EqReviews
		where $a.id = 4 and word-tokens($a.summary) ~= word-tokens($b.summary) and $a.id != $b.id
		return $b.id`
	gathered := []struct{ name, query string }{
		{"count", `count(for $r in dataset EqReviews where $r.id > 2 return $r)`},
		{"order-by + limit", `for $r in dataset EqReviews order by $r.username limit 3 return $r.id`},
	}
	answers := map[string][]string{}
	for _, tr := range []struct {
		name string
		c    *Cluster
	}{{"inproc", inproc}, {"tcp", tcp}} {
		t.Run(tr.name, func(t *testing.T) {
			c := tr.c
			for _, s := range selections {
				miss := exec(t, c, NewSession(), s.query)
				hit := exec(t, c, NewSession(), s.query)
				if miss.Stats.PlanCacheHit || !hit.Stats.PlanCacheHit {
					t.Fatalf("%s: plan-cache hit %v then %v, want a miss then a hit", s.name, miss.Stats.PlanCacheHit, hit.Stats.PlanCacheHit)
				}
				got := rowFingerprints(hit.Rows)
				if len(got) == 0 || fmt.Sprint(got) != fmt.Sprint(rowFingerprints(miss.Rows)) {
					t.Errorf("%s: the hit returned %d rows, the miss %d", s.name, len(hit.Rows), len(miss.Rows))
				}
				if want, ok := answers[s.name]; ok && fmt.Sprint(want) != fmt.Sprint(got) {
					t.Errorf("%s: the transports disagree", s.name)
				}
				answers[s.name] = got

				nodes, instances, broadcast, sorts := jobShape(t, c, explainedPlan(t, c, NewSession(), s.query))
				if nodes != 2 || instances != 5 || broadcast || sorts {
					t.Errorf("%s: %d job nodes, %d instances, broadcast %v, sort %v; want 2, 5, no broadcast, no sort",
						s.name, nodes, instances, broadcast, sorts)
				}
				ops := hit.Stats.PhysicalOps()
				if len(ops) != 2 || len(hit.Stats.Spans) != 5 {
					t.Fatalf("%s: %d operators and %d instances ran: %+v", s.name, len(ops), len(hit.Stats.Spans), ops)
				}
				sel := ops[0]
				if !strings.HasPrefix(sel.Name, "SecondaryIndexSearch(") || !hasStage(sel.Name, "PrimaryIndexLookup(EqReviews)") ||
					!hasStage(sel.Name, "Select(verify)") || ops[1].Name != "DistributeResult" {
					t.Errorf("%s: operators %q and %q", s.name, sel.Name, ops[1].Name)
				}
				// The node reads the search's candidates and emits the
				// verified rows.
				if sel.TuplesIn != hit.Stats.CandidatesTotal || sel.TuplesOut != int64(len(hit.Rows)) || hit.Stats.CandidatesTotal == 0 {
					t.Errorf("%s: %s reports in=%d out=%d, want %d candidates and %d rows",
						s.name, sel.Name, sel.TuplesIn, sel.TuplesOut, hit.Stats.CandidatesTotal, len(hit.Rows))
				}
				// Node 1's instances send the gather its frames, and
				// nothing else crosses a node.
				var gather int64
				for _, sp := range hit.Stats.Spans {
					if sp.Node != 0 {
						gather += sp.FramesSent
					}
				}
				if hit.Stats.NetMessages != gather {
					t.Errorf("%s: %d messages, the gather's frames %d", s.name, hit.Stats.NetMessages, gather)
				}
			}

			nodes, instances, broadcast, sorts := jobShape(t, c, explainedPlan(t, c, NewSession(), scan))
			if nodes != 2 || instances != 5 || broadcast || sorts {
				t.Errorf("scan selection: %d job nodes, %d instances, broadcast %v, sort %v; want 2, 5, no broadcast, no sort",
					nodes, instances, broadcast, sorts)
			}
			if res := exec(t, c, NewSession(), scan); res.Stats.IndexSearches != 0 || len(res.Rows) == 0 ||
				!hasStage(res.Stats.PhysicalOps()[0].Name, "DataScan(EqReviews)") {
				t.Errorf("scan selection: %d searches, %d rows, operators %+v", res.Stats.IndexSearches, len(res.Rows), res.Stats.PhysicalOps())
			}

			res := exec(t, c, NewSession(), inlj)
			if res.Stats.IndexSearches == 0 {
				t.Fatalf("not an index nested-loop join:\n%s", res.Stats.LogicalPlan())
			}
			if want, ok := answers["inlj"]; ok && fmt.Sprint(want) != fmt.Sprint(rowFingerprints(res.Rows)) {
				t.Errorf("inlj: the transports disagree")
			}
			answers["inlj"] = rowFingerprints(res.Rows)
			if nodes, instances, _, _ := jobShape(t, c, explainedPlan(t, c, NewSession(), inlj)); nodes != 6 || instances != 21 {
				t.Errorf("inlj: %d job nodes and %d instances, want 6 and 21", nodes, instances)
			}
			for _, q := range gathered {
				nodes, instances, _, _ := jobShape(t, c, explainedPlan(t, c, NewSession(), q.query))
				if nodes != 2 || instances != 5 {
					t.Errorf("%s: %d job nodes and %d instances, want 2 and 5", q.name, nodes, instances)
				}
				res := exec(t, c, NewSession(), q.query)
				got := fmt.Sprint(res.Rows)
				if want, ok := answers[q.name]; len(res.Rows) == 0 || ok && want[0] != got {
					t.Errorf("%s: rows %s, the other transport %v", q.name, got, want)
				}
				answers[q.name] = []string{got}
			}
			// The search is a stage of the pipeline that reads the outer
			// rows through a broadcast port, in every partition, and the
			// Sort of its candidates and their lookup are stages of the
			// same pipeline: one node, whose stages run in that order.
			var search *hyracks.OpNode
			for _, n := range jobNodes(t, c, explainedPlan(t, c, NewSession(), inlj)) {
				if hasStage(n.Name, "SecondaryIndexSearch(eqkw)") {
					if search != nil {
						t.Errorf("inlj: two nodes search, %q and %q", search.Name, n.Name)
					}
					search = n
				}
			}
			if search == nil || len(search.Inputs) != 1 || search.Inputs[0].Conn.Type != hyracks.Broadcast ||
				search.Parts != c.Config().Partitions() {
				t.Fatalf("inlj: the search is no stage of a pipeline over a broadcast port: %+v", search)
			}
			if !strings.HasPrefix(search.Name, "SecondaryIndexSearch(eqkw)+Sort+PrimaryIndexLookup(EqReviews)+") {
				t.Errorf("inlj: the search, its Sort and its lookup are not one node: %q, operators %+v", search.Name, res.Stats.PhysicalOps())
			}
		})
	}

	t.Run("orders it does not have", func(t *testing.T) {
		q := selections[0].query
		bp := explainedPlan(t, inproc, NewSession(), q)
		rows := rowFingerprints(runPlan(t, inproc, bp))
		if len(rows) == 0 {
			t.Fatal("the selection returns no row")
		}
		want := fmt.Sprint(rows)
		top := algebra.Var(0)
		algebra.Walk(bp.root, func(op *algebra.Op) {
			for _, v := range op.DefinedVars() {
				top = max(top, v)
			}
		})
		variants := map[string]func(op *algebra.Op) *algebra.Op{
			// The search delivers its pks ascending.
			"descending": func(op *algebra.Op) *algebra.Op {
				if op.Kind != algebra.OpOrder {
					return nil
				}
				cp := *op
				cp.Orders = []algebra.OrderSpec{{E: op.Orders[0].E, Desc: true}}
				return &cp
			},
			// The same pks under another variable: an assign keeps the
			// search's order, but not on the variable the order asks for.
			"another variable": func(op *algebra.Op) *algebra.Op {
				if op.Kind != algebra.OpOrder {
					return nil
				}
				search := op.Inputs[0]
				alias := top + 1
				assign := &algebra.Op{Kind: algebra.OpAssign, AssignVars: []algebra.Var{alias},
					AssignExprs: []algebra.Expr{algebra.VarRef{V: search.OutVar}}, Inputs: []*algebra.Op{search}}
				return &algebra.Op{Kind: algebra.OpOrder, Orders: []algebra.OrderSpec{{E: algebra.VarRef{V: alias}}}, Inputs: []*algebra.Op{assign}}
			},
		}
		for name, f := range variants {
			root := rewritePlan(bp.root, f)
			vb := boundPlan{root: root, params: bp.params, facts: analyzePlan(root)}
			if _, _, _, sorts := jobShape(t, inproc, vb); !sorts {
				t.Errorf("%s: the order was elided", name)
			}
			if got := fmt.Sprint(rowFingerprints(runPlan(t, inproc, vb))); got != want {
				t.Errorf("%s: rows %s, want %s", name, got, want)
			}
		}
	})

	t.Run("cancel mid-lookup", func(t *testing.T) {
		// Inproc, where the snapshots are in reach: partition 1's instance
		// sends each row to the gather on node 0 in a frame of its own,
		// each frame held on the wire, so the query is cancelled while the
		// instance still holds its snapshot with rows left to look up.
		c, err := New(Config{NumNodes: 2, PartitionsPerNode: 1, DataDir: t.TempDir(), FrameSize: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		exec(t, c, NewSession(), `create dataset Names primary key id;`)
		var batch []adm.Value
		for i := 0; i < 400; i++ {
			rec := adm.EmptyRecord(2)
			rec.Set("id", adm.NewInt(int64(i)))
			rec.Set("name", adm.NewString("marla"))
			batch = append(batch, adm.NewRecord(rec))
		}
		if err := c.InsertBatch("Default", "Names", batch); err != nil {
			t.Fatal(err)
		}
		if err := c.FlushAll(); err != nil {
			t.Fatal(err)
		}
		exec(t, c, NewSession(), `create index nng on Names(name) type ngram(2);`)
		const q = `for $r in dataset Names where edit-distance($r.name, 'maria') <= 1 return $r.id`
		if n := len(exec(t, c, NewSession(), q).Rows); n != 400 {
			t.Fatalf("%d rows, want 400", n)
		}
		readers := func() (n int64) {
			for p := 0; p < 2; p++ {
				tree, err := c.nodeOfPartition(p).primary("Default", "Names", p)
				if err != nil {
					t.Fatal(err)
				}
				n += tree.Readers()
			}
			return n
		}
		baseRefs, baseGoroutines := readers(), runtime.NumGoroutine()

		c.SetSimNetLatency(20 * time.Millisecond)
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		var qerr error
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, qerr = c.Execute(ctx, NewSession(), q)
		}()
		deadline := time.Now().Add(10 * time.Second)
		for readers() == baseRefs {
			if time.Now().After(deadline) {
				t.Fatal("the query never opened its snapshot")
			}
			time.Sleep(time.Millisecond)
		}
		time.Sleep(50 * time.Millisecond) // some rows in, most to go
		cancel()
		cancelled := time.Now()
		wg.Wait()
		if !errors.Is(qerr, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", qerr)
		}
		// The instance stops between rows: the rest of its 200 would
		// take four seconds on the wire.
		if d := time.Since(cancelled); d > time.Second {
			t.Errorf("the query returned %v after the cancel", d)
		}
		if n := readers(); n != baseRefs {
			t.Errorf("the cancelled query left %d component references, %d before it", n, baseRefs)
		}
		for runtime.NumGoroutine() > baseGoroutines {
			if time.Now().After(deadline) {
				t.Fatalf("%d goroutines after the cancel, %d before the query", runtime.NumGoroutine(), baseGoroutines)
			}
			time.Sleep(time.Millisecond)
		}
	})
}
