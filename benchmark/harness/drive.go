package harness

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"simdb/benchmark/gen"
	"simdb/benchmark/oracle"
	"simdb/benchmark/span"
	"simdb/benchmark/stats"
	"simdb/internal/adm"
	"simdb/internal/core"
)

// joinClass is the class index of a join operation (the four CANON
// classes come first).
const joinClass = int(gen.NumClasses)

// checkedPerClass is how many answers of each class are kept for the
// oracle.
const checkedPerClass = 32

// op is one query a client sends: exactly one of q and j is meaningful,
// by class.
type op struct {
	class int
	text  string
	q     gen.Query
	j     gen.Join
}

// queryInfo is what a query call returned besides its rows: the phase
// times and counters of cluster.QueryStats, or the subset of them the
// HTTP summary record carries.
type queryInfo struct {
	admissionNs, parseNs, translateNs, optimizeNs, jobgenNs, execNs int64
	// serverWallNs is the front end's own wall time (HTTP only).
	serverWallNs int64
	hit          bool
	cornerCases  int

	indexSearches, postings, candidates, verified, occurrenceT int64

	totalBusyNs, maxNodeBusyNs, bytesShuffled, netMessages int64
	spillRuns, spilledBytes, memHighWater                  int64
}

func (qi queryInfo) compileNs() int64 { return qi.parseNs + qi.translateNs + qi.optimizeNs }

// reply is one query's outcome as the client saw it.
type reply struct {
	info  queryInfo
	ids   []int64       // selection rows
	pairs []oracle.Pair // join rows
	// HTTP only: time to the first line, body bytes, row count, and
	// whether the server refused with 503.
	ttfr      time.Duration
	bodyBytes int
	rows      int
	refused   bool
}

// executor sends one query and waits for its whole answer.
type executor interface {
	exec(ctx context.Context, o op, wantRows bool) (reply, error)
}

// embedded calls core.Database.Execute in this process.
type embedded struct {
	db   *core.Database
	sess *core.Session
}

func (e *embedded) exec(ctx context.Context, o op, wantRows bool) (reply, error) {
	res, err := e.db.Execute(ctx, e.sess, o.text)
	if err != nil {
		return reply{}, err
	}
	st := &res.Stats
	r := reply{rows: len(res.Rows), info: queryInfo{
		admissionNs: st.AdmissionNs, parseNs: st.ParseNs, translateNs: st.TranslateNs,
		optimizeNs: st.OptimizeNs, jobgenNs: st.JobGenNs, execNs: st.ExecNs,
		hit: st.PlanCacheHit, cornerCases: st.CornerCaseFallbacks,
		indexSearches: st.IndexSearches, postings: st.PostingsRead, candidates: st.CandidatesTotal,
		verified: st.VerifiedTotal, occurrenceT: st.OccurrenceT,
		totalBusyNs: st.TotalBusyNs, maxNodeBusyNs: st.MaxNodeBusyNs,
		bytesShuffled: st.BytesShuffled, netMessages: st.NetMessages,
		spillRuns: st.SpillRuns, spilledBytes: st.SpilledBytes, memHighWater: st.MemHighWater,
	}}
	if !wantRows {
		return r, nil
	}
	field := func(v adm.Value, name string) int64 {
		f, _ := v.Rec().Get(name)
		return f.Int()
	}
	for _, row := range res.Rows {
		if o.class == joinClass {
			r.pairs = append(r.pairs, oracle.Pair{O: field(row, "o"), I: field(row, "i")})
		} else {
			r.ids = append(r.ids, field(row, "id"))
		}
	}
	return r, nil
}

// httpClient talks to the simdbd front end over one keep-alive
// connection with its own session, decoding every NDJSON line.
type httpClient struct {
	base    string
	session string
	c       *http.Client
}

func newHTTPClient(addr string) (*httpClient, error) {
	h := &httpClient{
		base: "http://" + addr,
		c:    &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}},
	}
	resp, err := h.c.Post(h.base+"/sessions", "application/json", nil)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var out struct {
		Session string `json:"session"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil || out.Session == "" {
		return nil, fmt.Errorf("simbench: create session: status %d, %v", resp.StatusCode, err)
	}
	h.session = out.Session
	return h, nil
}

func (h *httpClient) close() { h.c.CloseIdleConnections() }

// ndjsonLine is any one record of a /query response.
type ndjsonLine struct {
	Row *struct {
		ID int64 `json:"id"`
	} `json:"row"`
	Summary *struct {
		WallNs       int64 `json:"wall_ns"`
		ExecNs       int64 `json:"exec_ns"`
		AdmissionNs  int64 `json:"admission_ns"`
		PlanCacheHit bool  `json:"plan_cache_hit"`
	} `json:"summary"`
	Error *struct {
		Code    string `json:"code"`
		Message string `json:"message"`
	} `json:"error"`
}

func (h *httpClient) exec(ctx context.Context, o op, _ bool) (reply, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, h.base+"/query", strings.NewReader(o.text))
	if err != nil {
		return reply{}, err
	}
	req.Header.Set("Content-Type", "text/plain")
	req.Header.Set("X-SimDB-Session", h.session)
	sent := time.Now()
	resp, err := h.c.Do(req)
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	var r reply
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		r.refused = resp.StatusCode == http.StatusServiceUnavailable
		return r, fmt.Errorf("simbench: http status %d: %s", resp.StatusCode, body)
	}
	br := bufio.NewReader(resp.Body)
	done := false
	for {
		line, err := br.ReadBytes('\n')
		if len(line) > 0 {
			if r.bodyBytes == 0 {
				r.ttfr = time.Since(sent)
			}
			r.bodyBytes += len(line)
			var rec ndjsonLine
			if err := json.Unmarshal(line, &rec); err != nil {
				return r, fmt.Errorf("simbench: bad NDJSON line %q: %w", line, err)
			}
			switch {
			case rec.Row != nil:
				r.ids = append(r.ids, rec.Row.ID)
				r.rows++
			case rec.Summary != nil:
				s := rec.Summary
				r.info = queryInfo{serverWallNs: s.WallNs, execNs: s.ExecNs, admissionNs: s.AdmissionNs, hit: s.PlanCacheHit}
				done = true
			case rec.Error != nil:
				return r, fmt.Errorf("simbench: stream error %s: %s", rec.Error.Code, rec.Error.Message)
			}
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return r, err
		}
	}
	if !done {
		return r, fmt.Errorf("simbench: response ended without a summary record")
	}
	return r, nil
}

// sample is one operation a query client completed or failed; kept
// marks an answer whose rows were retained for the oracle.
type sample struct {
	o          op
	start, end time.Time
	err        error
	reply      reply
	kept       bool
}

func (s sample) latMs() float64 { return float64(s.end.Sub(s.start)) / 1e6 }

// timeline fixes when a run's phases start, on one clock for every
// client: [t0, plain) warms up, [plain, traced) is measured with the
// span recorder off, [traced, end) with it on (empty when untraced).
type timeline struct {
	t0, plain, traced, end time.Time
}

// runClient sends ops from next, one after another (closed loop), until
// the timeline ends; warm-up samples are kept too and told apart by
// their start time. Client 0 keeps the first checkedPerClass answers of
// each class for the oracle.
func runClient(ctx context.Context, id int, ex executor, next func() op, tl timeline, rec *span.Recorder) []sample {
	var out []sample
	kept := map[int]int{}
	for opID := uint64(id) << 32; ; opID++ {
		start := time.Now()
		if !start.Before(tl.end) || ctx.Err() != nil {
			return out
		}
		o := next()
		keep := id == 0 && kept[o.class] < checkedPerClass
		rep, err := ex.exec(ctx, o, keep)
		end := time.Now()
		keep = keep && err == nil
		if keep {
			kept[o.class]++
		}
		out = append(out, sample{o: o, start: start, end: end, err: err, reply: rep, kept: keep})
		if err == nil && !start.Before(tl.traced) {
			recordQuerySpans(rec, opID, id, start, end, rep.info)
		}
	}
}

// recordQuerySpans records the span around one query call and, inside
// it, one child per phase the call reported. The phases ran in this
// order without overlap, so each child starts where the previous one
// ended; what the children leave uncovered is the call's self time.
func recordQuerySpans(rec *span.Recorder, opID uint64, lane int, start, end time.Time, qi queryInfo) {
	if rec == nil {
		return
	}
	root := rec.Add("query", 0, opID, lane, start, end)
	at := start
	for _, ph := range []struct {
		name string
		ns   int64
	}{
		{"cluster.admission", qi.admissionNs},
		{"cluster.compile", qi.compileNs()},
		{"cluster.jobgen", qi.jobgenNs},
		{"cluster.exec", qi.execNs},
	} {
		if ph.ns > 0 {
			to := at.Add(time.Duration(ph.ns))
			rec.Add(ph.name, root, opID, lane, at, to)
			at = to
		}
	}
}

// writerLane is the trace lane of the writer's spans.
const writerLane = 100

// writerResult is what the open-loop writer produced.
type writerResult struct {
	loop stats.OpenLoopResult
	// acked is how many records were acknowledged (batches are sent in
	// order, so they are a prefix of fresh unless one failed); failed
	// counts batches that returned an error.
	acked  int
	failed int
}

// runWriter inserts fresh in batches of writeBatch on the fixed
// schedule of writeRate records per second, from tl.t0 to tl.end.
func runWriter(db *core.Database, dataset string, fresh []gen.Record, tl timeline, rec *span.Recorder) writerResult {
	var out writerResult
	out.loop = stats.OpenLoop(stats.Wall, tl.t0, writeInterval, tl.end, func(i int) bool {
		lo := i * writeBatch
		if lo+writeBatch > len(fresh) {
			return false
		}
		batch := toADMBatch(fresh[lo : lo+writeBatch])
		start := time.Now()
		err := db.InsertBatch(dataset, batch)
		end := time.Now()
		if err != nil {
			out.failed++
		} else {
			out.acked += writeBatch
		}
		if !start.Before(tl.traced) {
			rec.Add("cluster.insert_batch", 0, 1<<62|uint64(i), writerLane, start, end)
		}
		return true
	})
	return out
}

// drive runs the workload's clients (and writer) over the timeline and
// returns their results once every one of them has stopped.
func drive(ctx context.Context, w Workload, db *core.Database, d *gen.Dataset, fresh []gen.Record, tl timeline, rec *span.Recorder) ([][]sample, writerResult, error) {
	ds := w.Dataset()
	executors := make([]executor, w.Clients)
	sources := make([]func() op, w.Clients)
	for i := range executors {
		switch {
		case w.HTTP:
			h, err := newHTTPClient(db.ServeAddr())
			if err != nil {
				return nil, writerResult{}, err
			}
			defer h.close()
			executors[i] = h
		default:
			sess := db.NewSession()
			if w.Join {
				if _, err := db.Execute(ctx, sess, "set memorybudget '"+joinMemBudget+"';"); err != nil {
					return nil, writerResult{}, err
				}
			}
			executors[i] = &embedded{db: db, sess: sess}
		}
		if w.Join {
			js := d.Joins(joinRecords(len(d.Records)))
			sources[i] = func() op {
				j := js.Next()
				return op{class: joinClass, text: j.AQL(ds), j: j}
			}
		} else {
			st := d.Stream(i)
			sources[i] = func() op {
				q := st.Next()
				return op{class: int(q.Class), text: q.AQL(ds), q: q}
			}
		}
	}
	results := make([][]sample, w.Clients)
	var wres writerResult
	var wg sync.WaitGroup
	for i := range executors {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = runClient(ctx, i, executors[i], sources[i], tl, rec)
		}(i)
	}
	if w.Ingest {
		wg.Add(1)
		go func() {
			defer wg.Done()
			wres = runWriter(db, ds, fresh, tl, rec)
		}()
	}
	wg.Wait()
	return results, wres, nil
}
