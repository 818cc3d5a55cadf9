package harness

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"time"

	"simdb/benchmark/gen"
	"simdb/benchmark/span"
	"simdb/benchmark/stats"
	"simdb/internal/adm"
	"simdb/internal/algebra"
	"simdb/internal/aqlp"
	"simdb/internal/hyracks"
	"simdb/internal/invindex"
	"simdb/internal/sim"
	"simdb/internal/storage"
	"simdb/internal/tokenizer"
	"simdb/internal/transport"
)

// Per-layer metrics have three sources and no other: spans the benchmark
// recorded around its own calls, values those calls returned
// (QueryStats, Database.Metrics, the NDJSON summary), and replays of the
// run's recorded inputs through a layer's exported functions. Nothing
// here reads engine internals, so the numbers survive a refactor of any
// layer that keeps its exported surface.

// replayCap bounds how many recorded inputs a replay runs, to keep the
// traced run short.
const replayCap = 256

// perLayer fills every per-layer metric from the traced window.
func perLayer(res *Result, w Workload, d *gen.Dataset, tw, pw window, rec *span.Recorder,
	wr writerResult, twin *twinResult, replayDir string) {
	for _, def := range PerLayer {
		res.set(def.Name, 0)
	}
	ok := tw.ok()
	n := float64(max(len(ok), 1))

	// Phases, from the spans: every name's total time over the queries.
	self := span.SelfByName(rec.Spans())
	us := func(name string) float64 { return float64(self[name]) / 1e3 / n }
	res.set("cluster.admission_us", us("cluster.admission"))
	res.set("cluster.compile_us", us("cluster.compile"))
	res.set("cluster.jobgen_us", us("cluster.jobgen"))
	res.set("cluster.exec_us", us("cluster.exec"))
	res.set("cluster.self_us", us("query"))
	res.set("bench.lat_mean_ms", stats.Mean(latencies(ok)))

	// Counters the calls returned.
	var sum queryInfo
	var hits, misses, indexed, corner int
	var optimizeNs, skewSum float64
	var highWater int64
	for _, s := range ok {
		qi := s.reply.info
		if qi.hit {
			hits++
		} else {
			misses++
			optimizeNs += float64(qi.optimizeNs)
		}
		if qi.indexSearches > 0 {
			indexed++
		}
		if qi.cornerCases > 0 {
			corner++
		}
		sum.postings += qi.postings
		sum.candidates += qi.candidates
		sum.verified += qi.verified
		sum.occurrenceT += qi.occurrenceT
		sum.totalBusyNs += qi.totalBusyNs
		sum.execNs += qi.execNs
		sum.bytesShuffled += qi.bytesShuffled
		sum.netMessages += qi.netMessages
		sum.spillRuns += qi.spillRuns
		sum.spilledBytes += qi.spilledBytes
		highWater = max(highWater, qi.memHighWater)
		if qi.totalBusyNs > 0 {
			skewSum += float64(qi.maxNodeBusyNs) / (float64(qi.totalBusyNs) / float64(nodes))
		}
	}
	res.set("cluster.plancache_hit_ratio", float64(hits)/n)
	res.set("optimizer.optimize_us", optimizeNs/1e3/float64(max(misses, 1)))
	// Of the queries an index can serve at all (a corner case cannot be),
	// the share that was rewritten to use one.
	res.set("optimizer.index_rewrite_ratio", float64(indexed)/float64(max(len(ok)-corner, 1)))
	res.set("optimizer.corner_case_ratio", float64(corner)/n)
	res.set("invindex.postings_per_query", float64(sum.postings)/n)
	res.set("invindex.candidates_per_query", float64(sum.candidates)/n)
	res.set("invindex.verified_ratio", float64(sum.verified)/float64(max(sum.candidates, 1)))
	res.set("invindex.occurrence_t", float64(sum.occurrenceT)/float64(max(indexed, 1)))
	res.set("hyracks.busy_ratio", float64(sum.totalBusyNs)/float64(max(sum.execNs*partitions, 1)))
	res.set("hyracks.skew", skewSum/n)
	res.set("hyracks.bytes_shuffled_per_query", float64(sum.bytesShuffled)/n)
	res.set("hyracks.net_messages_per_query", float64(sum.netMessages)/n)
	res.set("hyracks.spill_runs_per_query", float64(sum.spillRuns)/n)
	res.set("hyracks.spilled_bytes_per_query", float64(sum.spilledBytes)/n)
	res.set("hyracks.mem_high_water_bytes", float64(highWater))

	storageCounters(res, tw, n)

	// Per class, the pooled percentile's parts.
	byClass := map[int][]float64{}
	for _, s := range ok {
		byClass[s.o.class] = append(byClass[s.o.class], s.latMs())
	}
	for c := gen.Class(0); c < gen.NumClasses; c++ {
		if l := byClass[int(c)]; len(l) > 0 {
			res.set("class."+c.String()+".lat_p50_ms", stats.Percentile(l, 50))
		}
	}

	// The observer's own cost: the same load with the recorder on and
	// off, each window's throughput at the host's reference speed (the two
	// windows follow each other, and the host may change between them).
	// The other per-layer times are as the clock gave them; host.slowdown
	// says how slow the host was while they were taken.
	res.set("host.slowdown", res.HostSlowdown)
	if plainOK := pw.ok(); len(plainOK) > 0 {
		res.set("trace.overhead_ratio",
			(float64(len(ok))/tw.seconds*tw.slowdown())/(float64(len(plainOK))/pw.seconds*pw.slowdown()))
	}
	res.set("bench.writer_lag_ms_max", wr.loop.MaxLagMs)
	if w.Ingest {
		res.set("write_lat_p50_ms", stats.Percentile(tw.writes, 50))
		res.set("write_lat_p95_ms", stats.Percentile(tw.writes, 95))
	}

	if w.HTTP {
		var tax []float64
		var bytes, rows, refused int
		for _, s := range tw.samples {
			if s.reply.refused {
				refused++
			}
		}
		for _, s := range ok {
			tax = append(tax, s.latMs()-float64(s.reply.info.serverWallNs)/1e6)
			bytes += s.reply.bodyBytes
			rows += s.reply.rows
		}
		res.set("simdbd.tax_ms_per_query", stats.Mean(tax))
		res.set("simdbd.bytes_per_row", float64(bytes)/float64(max(rows, 1)))
		res.set("simdbd.status_503_ratio", float64(refused)/float64(max(len(tw.samples), 1)))
		res.set("ttfr_p50_ms", stats.Percentile(ttfrs(ok), 50))
	}
	if twin != nil {
		res.set("transport.tax_ms_per_query", stats.Percentile(latencies(ok), 50)-twin.p50Ms)
	}

	replays(res, w, d, ok, rec, replayDir)
}

// The default topology, which no workload changes.
const (
	nodes      = 2
	partitions = 4
)

// storageCounters turns the difference of two Database.Metrics snapshots
// into the storage metrics of the window. Under tcp only node 0's
// storage is in this process and counted.
func storageCounters(res *Result, tw window, queries float64) {
	a, b := tw.probes[0].metrics, tw.probes[len(tw.probes)-1].metrics
	counter := func(name string) float64 { return float64(b.Counters[name] - a.Counters[name]) }
	gauge := func(name string) float64 { return float64(b.Gauges[name] - a.Gauges[name]) }
	histSum := func(name string) float64 { return float64(b.Histograms[name].Sum - a.Histograms[name].Sum) }
	histCount := func(name string) float64 { return float64(b.Histograms[name].Count - a.Histograms[name].Count) }
	ratio := func(x, y float64) float64 {
		if y == 0 {
			return 0
		}
		return x / y
	}
	hits, misses := gauge("storage.cache.hits"), gauge("storage.cache.misses")
	res.set("storage.cache_hit_ratio", ratio(hits, hits+misses))
	res.set("storage.pages_read_per_query", gauge("storage.cache.pages_read")/queries)
	res.set("storage.bloom_negative_ratio", ratio(counter("storage.bloom.negatives"), counter("storage.bloom.checks")))
	res.set("storage.flush_count", counter("storage.flush.count"))
	res.set("storage.flush_ms_total", histSum("storage.flush.ns")/1e6)
	res.set("storage.merge_count", counter("storage.merge.count"))
	res.set("storage.merge_ms_total", histSum("storage.merge.ns")/1e6)
	res.set("storage.stall_count", counter("storage.stall.count"))
	res.set("storage.stall_ms_total", histSum("storage.stall.ns")/1e6)
	res.set("storage.wal_fsyncs_per_batch", ratio(counter("storage.wal.fsyncs"), counter("cluster.ingest.batches")))
	res.set("storage.wal_group_size_mean", ratio(histSum("storage.wal.group_size"), histCount("storage.wal.group_size")))
	res.set("storage.components_at_end", float64(b.Gauges["storage.disk.components"]))
}

// twinResult is the inproc twin of a tcp run.
type twinResult struct{ p50Ms float64 }

// runTwin loads the same records into an inproc database and runs the
// workload's query streams on it for dur.
func runTwin(ctx context.Context, w Workload, d *gen.Dataset, recs []gen.Record, dir string, dur time.Duration) (*twinResult, error) {
	inproc := w
	inproc.Tune = nil
	defer os.RemoveAll(dir)
	db, err := setup(inproc, recs, dir)
	if err != nil {
		return nil, err
	}
	defer db.Close()
	var tl timeline
	tl.t0 = time.Now()
	tl.plain = tl.t0.Add(dur / 4)
	tl.traced = tl.plain.Add(dur)
	tl.end = tl.traced
	clients, _, err := drive(ctx, inproc, db, d, nil, tl, nil)
	if err != nil {
		return nil, err
	}
	var lat []float64
	for _, samples := range clients {
		for _, s := range samples {
			if s.err == nil && !s.start.Before(tl.plain) {
				lat = append(lat, s.latMs())
			}
		}
	}
	return &twinResult{p50Ms: stats.Percentile(lat, 50)}, nil
}

// replayLane is the trace lane of the replay spans.
const replayLane = 200

// replays measures single layers by feeding them the run's own inputs:
// the query texts and constants the clients sent, and the records they
// ran against. Each replay is one span named after the metric it gives.
func replays(res *Result, w Workload, d *gen.Dataset, ok []sample, rec *span.Recorder, dir string) {
	os.RemoveAll(dir)
	defer os.RemoveAll(dir)
	// timePer runs fn over n items and sets metric to the mean time per
	// item, in the metric's unit (ns, or us when scale is 1e3).
	timePer := func(metric string, scale float64, n int, fn func(i int)) {
		if n == 0 {
			return
		}
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn(i)
		}
		end := time.Now()
		rec.Add("replay:"+metric, 0, 0, replayLane, t0, end)
		res.set(metric, float64(end.Sub(t0))/float64(n)/scale)
	}
	if len(ok) > replayCap {
		ok = ok[:replayCap]
	}
	recs := d.Records
	if len(recs) > 8*replayCap {
		recs = recs[:8*replayCap]
	}

	timePer("aqlp.parse_us", 1e3, len(ok), func(i int) { aqlp.Parse(ok[i].o.text) })

	// The constants searched for; a join's are its outer records' summaries.
	var jac, ed []gen.Query
	for _, s := range ok {
		switch {
		case s.o.class == joinClass:
			jac = append(jac, gen.Query{Class: gen.Jaccard08, Const: d.Records[s.o.j.Start-1].Summary})
		case s.o.q.Class.IsJaccard():
			jac = append(jac, s.o.q)
		default:
			ed = append(ed, s.o.q)
		}
	}

	// tokenizer and sim: each constant against a stride of records.
	summaries := make([][]string, len(recs))
	timePer("tokenizer.word_ns_per_value", 1, len(recs), func(i int) {
		summaries[i] = tokenizer.WordTokens(recs[i].Summary)
	})
	timePer("tokenizer.gram_ns_per_value", 1, len(recs), func(i int) {
		tokenizer.GramTokens(recs[i].ReviewerName, 2, true)
	})
	const stride = 16
	if len(jac) > 0 {
		consts := make([][]string, len(jac))
		for i, q := range jac {
			consts[i] = tokenizer.WordTokens(q.Const)
		}
		timePer("sim.jaccard_check_ns", 1, len(jac)*stride, func(i int) {
			q := i / stride
			num, den := jac[q].Class.Threshold()
			sim.JaccardCheck(summaries[(i*31)%len(summaries)], consts[q], float64(num)/float64(den))
		})
	}
	timePer("sim.edit_check_ns", 1, len(ed)*stride, func(i int) {
		q := i / stride
		k, _ := ed[q].Class.Threshold()
		sim.EditDistanceCheck(recs[(i*31)%len(recs)].ReviewerName, ed[q].Const, k)
	})

	// algebra: the CANON predicates over whole records, interpreted and
	// compiled.
	rows := make([][]adm.Value, len(recs))
	encoded := make([][]byte, len(recs))
	for i, r := range recs {
		v := toADM(r)
		rows[i] = []adm.Value{v}
		encoded[i] = adm.Encode(v)
	}
	cols := map[algebra.Var]int{0: 0}
	field := func(name string) algebra.Expr { return algebra.F("field-access", algebra.V(0), algebra.CStr(name)) }
	var preds []algebra.Expr
	for _, q := range append(head(jac), head(ed)...) {
		num, den := q.Class.Threshold()
		if q.Class.IsJaccard() {
			preds = append(preds, algebra.F("ge",
				algebra.F("similarity-jaccard", algebra.F("word-tokens", field("summary")), algebra.F("word-tokens", algebra.CStr(q.Const))),
				algebra.C(adm.NewDouble(float64(num)/float64(den)))))
		} else {
			preds = append(preds, algebra.F("le",
				algebra.F("edit-distance", field("reviewerName"), algebra.CStr(q.Const)), algebra.CInt(int64(num))))
		}
	}
	if len(preds) > 0 {
		env := algebra.NewEnv(cols, nil)
		timePer("algebra.eval_ns_per_row", 1, len(rows), func(i int) {
			env.Reset(rows[i])
			algebra.Eval(preds[i%len(preds)], env)
		})
		compiled := make([]algebra.CompiledEval, len(preds))
		for i, p := range preds {
			compiled[i], _ = algebra.Compile(p, cols)
		}
		timePer("algebra.compiled_ns_per_row", 1, len(rows), func(i int) {
			if fn := compiled[i%len(compiled)]; fn != nil {
				fn(rows[i])
			}
		})
	}

	// adm: decoding a stored record, and rendering a result row the way
	// the HTTP front end does.
	timePer("adm.decode_ns_per_record", 1, len(encoded), func(i int) { adm.Decode(encoded[i]) })
	resultRows := make([]adm.Value, len(recs))
	for i, r := range recs {
		resultRows[i] = adm.NewRecord(adm.NewRecordFromFields(
			[]string{"id", "summary", "reviewerName"},
			[]adm.Value{adm.NewInt(r.ID), adm.NewString(r.Summary), adm.NewString(r.ReviewerName)}))
	}
	timePer("adm.json_ns_per_record", 1, len(resultRows), func(i int) {
		json.Marshal(map[string]any{"row": adm.ToJSONish(resultRows[i])})
	})

	// storage: a standalone columnar LSM tree holding the same records.
	cache := storage.NewBufferCache(64<<20, 32<<10)
	if tree, err := storage.OpenLSM(filepath.Join(dir, "lsm"), storage.LSMOptions{Cache: cache, Columnar: true}); err == nil {
		keys := make([][]byte, len(recs))
		for i, r := range recs {
			keys[i] = adm.OrderedKey(adm.NewInt(r.ID))
			tree.Put(keys[i], encoded[i])
		}
		if tree.Flush() == nil {
			// One Scan call visits every row; the rows are the items.
			timePer("storage.scan_ns_per_row", float64(len(keys)), 1, func(int) {
				tree.Scan(nil, nil, func(_, _ []byte) bool { return true })
			})
			timePer("storage.get_us", 1e3, len(keys), func(i int) { tree.Get(keys[(i*31)%len(keys)]) })
		}
		tree.Close()
	}

	// invindex: a standalone keyword index of the same tokens, searched
	// with the recorded Jaccard constants by the configured algorithm.
	// Only where the workload's queries went through an index.
	algo := invindex.ScanCount
	switch w.Config("").TOccurrence {
	case "mergeskip":
		algo = invindex.MergeSkip
	case "divideskip":
		algo = invindex.DivideSkip
	}
	if w.Indexed && len(jac) > 0 {
		if ix, err := invindex.Open(filepath.Join(dir, "kw"), storage.LSMOptions{Cache: cache}); err == nil {
			for i, r := range recs {
				ix.Insert(summaries[i], invindex.PK(adm.OrderedKey(adm.NewInt(r.ID))))
			}
			if ix.Flush() == nil {
				timePer("invindex.search_us", 1e3, len(jac), func(i int) {
					toks := tokenizer.WordTokens(jac[i].Const)
					num, den := jac[i].Class.Threshold()
					ix.Search(toks, sim.TOccurrenceJaccard(len(toks), float64(num)/float64(den)), algo)
				})
			}
			ix.Close()
		}
	}

	// transport: frames of CANON result tuples through the codec and over
	// a loopback connection between two endpoints.
	frame := make([]hyracks.Tuple, min(hyracks.DefaultFrameSize, len(resultRows)))
	for i := range frame {
		frame[i] = hyracks.Tuple{resultRows[i]}
	}
	id := hyracks.StreamID{Job: 1}
	var payload []byte
	const frames = 200
	timePer("transport.encode_ns_per_frame", 1, frames, func(int) { payload = transport.EncodeFramePayload(id, frame) })
	timePer("transport.decode_ns_per_frame", 1, frames, func(int) { transport.DecodeFramePayload(payload) })
	if perFrame, err := loopback(frame, frames); err == nil {
		res.set("transport.loopback_us_per_frame", float64(perFrame)/1e3)
	}
}

// loopback sends n copies of frame from one transport endpoint to
// another over 127.0.0.1 and returns the time per frame, sender to
// receiver.
func loopback(frame []hyracks.Tuple, n int) (time.Duration, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	a, b := transport.NewNet(0, 0), transport.NewNet(1, 0)
	defer a.Close()
	defer b.Close()
	addr, err := a.Listen("127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	if _, err := b.Listen("127.0.0.1:0"); err != nil {
		return 0, err
	}
	if err := b.Dial(0, addr); err != nil {
		return 0, err
	}
	if err := a.WaitPeers(ctx, []int{1}); err != nil {
		return 0, err
	}
	id := hyracks.StreamID{Job: 1}
	send, err := b.OpenSend(id, 0)
	if err != nil {
		return 0, err
	}
	recv, err := a.OpenRecv(id, 1)
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	errc := make(chan error, 1)
	go func() {
		for i := 0; i < n; i++ {
			if _, err := send.Send(ctx, frame); err != nil {
				errc <- err
				return
			}
		}
		errc <- send.Close()
	}()
	got := 0
	for {
		if _, ok := recv.Recv(ctx); !ok {
			break
		}
		got++
	}
	per := time.Since(t0) / time.Duration(max(got, 1))
	if err := <-errc; err != nil {
		return 0, err
	}
	a.EndJob(id.Job)
	b.EndJob(id.Job)
	return per, nil
}
