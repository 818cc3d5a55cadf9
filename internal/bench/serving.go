package bench

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"simdb/internal/adm"
	"simdb/internal/core"
	"simdb/internal/datagen"
	"simdb/internal/obs"
)

// ServingQuery is one weighted entry in a load mix: requests are drawn
// from the mix proportionally to Weight, cycling through Statements.
type ServingQuery struct {
	Name       string
	Weight     int
	Statements []string
}

// ServingLoadOptions configures one open-loop load phase against a
// running simdbd endpoint.
type ServingLoadOptions struct {
	// Rate is the offered arrival rate in requests/sec. Arrivals fire on
	// their own schedule whether or not earlier requests finished —
	// open-loop, so server slowdown shows up as latency and rejections
	// instead of silently throttling the generator.
	Rate float64
	// Duration bounds the arrival schedule.
	Duration time.Duration
	// Mix is the weighted query mix; empty is an error.
	Mix []ServingQuery
	// Sessions are server-issued session tokens spread round-robin over
	// requests; empty runs every request sessionless.
	Sessions []string
}

// ServingLoadResult aggregates one load phase.
type ServingLoadResult struct {
	Offered     int64 `json:"offered"`
	Completed   int64 `json:"completed"`
	OK          int64 `json:"ok"`
	Rejected503 int64 `json:"rejected_503"`
	Timeout504  int64 `json:"timeout_504"`
	Client4xx   int64 `json:"client_4xx"`
	OtherErrors int64 `json:"other_errors"`
	// SampleError keeps the first transport/protocol error verbatim so a
	// nonzero OtherErrors count is diagnosable from the report alone.
	SampleError  string  `json:"sample_error,omitempty"`
	RowsStreamed int64   `json:"rows_streamed"`
	WallMs       float64 `json:"wall_ms"`
	AchievedQPS  float64 `json:"achieved_qps"`
	P50Ms        float64 `json:"p50_ms"`
	P95Ms        float64 `json:"p95_ms"`
	P99Ms        float64 `json:"p99_ms"`
	MaxMs        float64 `json:"max_ms"`
}

// RunServingLoad drives one open-loop load phase against the simdbd
// server at base (e.g. "http://127.0.0.1:8095"). Latency quantiles
// cover successful requests, first byte to stream end inclusive.
func RunServingLoad(base string, opt ServingLoadOptions) (ServingLoadResult, error) {
	if opt.Rate <= 0 || opt.Duration <= 0 {
		return ServingLoadResult{}, fmt.Errorf("bench: serving load needs a positive rate and duration")
	}
	var pool []ServingQuery
	for _, q := range opt.Mix {
		if len(q.Statements) == 0 {
			continue
		}
		w := q.Weight
		if w <= 0 {
			w = 1
		}
		for i := 0; i < w; i++ {
			pool = append(pool, q)
		}
	}
	if len(pool) == 0 {
		return ServingLoadResult{}, fmt.Errorf("bench: serving load mix is empty")
	}

	var res ServingLoadResult
	var sampleMu sync.Mutex
	sampleErr := func(err error) {
		sampleMu.Lock()
		if res.SampleError == "" {
			res.SampleError = err.Error()
		}
		sampleMu.Unlock()
	}
	hist := obs.NewHistogram()
	// Open-loop queues drain well past the arrival window; the client
	// timeout only guards against a hung server, not against queueing.
	client := &http.Client{Timeout: opt.Duration + 60*time.Second}
	var wg sync.WaitGroup
	interval := time.Duration(float64(time.Second) / opt.Rate)
	start := time.Now()
	for i := 0; ; i++ {
		at := start.Add(time.Duration(i) * interval)
		if at.Sub(start) >= opt.Duration {
			break
		}
		if d := time.Until(at); d > 0 {
			time.Sleep(d)
		}
		atomic.AddInt64(&res.Offered, 1)
		q := pool[i%len(pool)]
		stmt := q.Statements[(i/len(pool))%len(q.Statements)]
		session := ""
		if len(opt.Sessions) > 0 {
			session = opt.Sessions[i%len(opt.Sessions)]
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			t0 := time.Now()
			status, rows, termErr, err := servingRequest(client, base, session, stmt)
			atomic.AddInt64(&res.Completed, 1)
			atomic.AddInt64(&res.RowsStreamed, rows)
			switch {
			case err != nil:
				atomic.AddInt64(&res.OtherErrors, 1)
				sampleErr(err)
			case status == http.StatusServiceUnavailable:
				atomic.AddInt64(&res.Rejected503, 1)
			case status == http.StatusGatewayTimeout || termErr == "query-timeout":
				atomic.AddInt64(&res.Timeout504, 1)
			case status >= 400 && status < 500:
				atomic.AddInt64(&res.Client4xx, 1)
			case status == http.StatusOK && termErr == "":
				atomic.AddInt64(&res.OK, 1)
				hist.Observe(time.Since(t0).Nanoseconds())
			default:
				atomic.AddInt64(&res.OtherErrors, 1)
				sampleErr(fmt.Errorf("status %d (stream error %q)", status, termErr))
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	res.WallMs = float64(wall.Microseconds()) / 1000
	res.AchievedQPS = float64(res.OK) / wall.Seconds()
	snap := hist.Snapshot()
	res.P50Ms = float64(snap.P50) / 1e6
	res.P95Ms = float64(snap.P95) / 1e6
	res.P99Ms = float64(snap.P99) / 1e6
	res.MaxMs = float64(snap.Max) / 1e6
	return res, nil
}

// servingRequest runs one request and drains its NDJSON stream,
// returning the HTTP status, streamed row count, and the terminal error
// code if the stream ended in an error record.
//
// Connection-level failures before any response byte (EOF/reset from a
// keep-alive socket closing under thousands of conns/sec of churn)
// retry up to twice: the mix is read-only and the server never saw the
// request, so a replay cannot double-execute anything. Failures after
// the response starts are never retried.
func servingRequest(client *http.Client, base, session, stmt string) (status int, rows int64, termErr string, err error) {
	var resp *http.Response
	for attempt := 0; ; attempt++ {
		var req *http.Request
		req, err = http.NewRequest("POST", base+"/query", strings.NewReader(stmt))
		if err != nil {
			return 0, 0, "", err
		}
		req.Header.Set("Content-Type", "text/plain")
		// Also opt into net/http's own replay of requests whose reused
		// connection died (the transport only retries requests it may
		// treat as idempotent).
		req.Header.Set("X-Idempotency-Key", "simdb-serving-load")
		if session != "" {
			req.Header.Set("X-SimDB-Session", session)
		}
		resp, err = client.Do(req)
		if err == nil {
			break
		}
		if attempt >= 2 || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return 0, 0, "", err
		}
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, 0, "", nil
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64*1024), 8<<20)
	var rec struct {
		Row     json.RawMessage `json:"row"`
		Summary json.RawMessage `json:"summary"`
		Error   *struct {
			Code string `json:"code"`
		} `json:"error"`
	}
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		rec.Row, rec.Summary, rec.Error = nil, nil, nil
		if jerr := json.Unmarshal(line, &rec); jerr != nil {
			return resp.StatusCode, rows, "", jerr
		}
		switch {
		case rec.Error != nil:
			termErr = rec.Error.Code
		case rec.Summary == nil:
			rows++
		}
	}
	return resp.StatusCode, rows, termErr, sc.Err()
}

// ServingCell is one measured point of the serving experiment: a
// client-session count with its offered open-loop rate.
type ServingCell struct {
	Clients int     `json:"clients"`
	RateQPS float64 `json:"offered_qps"`
	ServingLoadResult
}

// ServingReport is the JSON emitted as BENCH_serving.json.
type ServingReport struct {
	Experiment       string        `json:"experiment"`
	Scale            int           `json:"scale"`
	Nodes            int           `json:"nodes"`
	MaxConcurrent    int           `json:"max_concurrent_queries"`
	AdmissionTimeout string        `json:"admission_timeout"`
	Cells            []ServingCell `json:"cells"`
}

// Serving measures the HTTP serving front end under open-loop load:
// an in-process simdbd server over an Amazon dataset, driven at rising
// session counts and offered rates through the real wire protocol
// (sessions, NDJSON streaming, admission rejections as 503s). The top
// cell deliberately offers more than the admission pool sustains, so
// the report shows rejections instead of unbounded queue growth.
// Results go to BENCH_serving.json under Env.ReportDir.
func (e *Env) Serving() error {
	e.logf("\n=== Serving: open-loop HTTP load over simdbd ===\n")
	const maxConcurrent = 8
	admissionTimeout := 250 * time.Millisecond
	dir := filepath.Join(e.Dir, "serving")
	db, err := core.Open(core.Config{
		DataDir:              dir,
		NumNodes:             e.Nodes,
		PartitionsPerNode:    e.PartsPerNode,
		ServeAddr:            "127.0.0.1:0",
		MaxConcurrentQueries: maxConcurrent,
		AdmissionTimeout:     admissionTimeout,
		QueryTimeout:         30 * time.Second,
	})
	if err != nil {
		return err
	}
	defer func() {
		db.Close()
		os.RemoveAll(dir)
	}()
	base := "http://" + db.ServeAddr()

	n := e.Scale
	name := datasetName(datagen.Amazon)
	jf, ef, err := datagen.Fields(datagen.Amazon)
	if err != nil {
		return err
	}
	if _, err := db.Query(fmt.Sprintf("create dataset %s primary key id;", name)); err != nil {
		return err
	}
	batch := make([]adm.Value, 0, 512)
	var jvals, evals []string
	if err := datagen.Generate(datagen.Amazon, n, datagen.Options{Seed: 7}, func(v adm.Value) error {
		if len(jvals) < 64 {
			if f, ok := v.Rec().Get(jf); ok {
				jvals = append(jvals, f.Str())
			}
			if f, ok := v.Rec().Get(ef); ok {
				evals = append(evals, f.Str())
			}
		}
		batch = append(batch, v)
		if len(batch) == 512 {
			err := db.InsertBatch(name, batch)
			batch = batch[:0]
			return err
		}
		return nil
	}); err != nil {
		return err
	}
	if len(batch) > 0 {
		if err := db.InsertBatch(name, batch); err != nil {
			return err
		}
	}
	for _, ddl := range []string{
		fmt.Sprintf("create index srv_kw on %s(%s) type keyword;", name, jf),
		fmt.Sprintf("create index srv_ng on %s(%s) type ngram(2);", name, ef),
	} {
		if _, err := db.Query(ddl); err != nil && !strings.Contains(err.Error(), "exists") {
			return err
		}
	}

	mix := servingMix(name, jf, ef, jvals, evals)
	report := ServingReport{
		Experiment:       "serving",
		Scale:            n,
		Nodes:            e.Nodes,
		MaxConcurrent:    maxConcurrent,
		AdmissionTimeout: admissionTimeout.String(),
	}
	e.logf("%8s %10s %10s %8s %8s %8s %9s %9s %9s\n",
		"clients", "offered", "ok/s", "503s", "504s", "errs", "p50(ms)", "p95(ms)", "p99(ms)")
	for _, clients := range []int{4, 16, 64} {
		sessions := make([]string, clients)
		for i := range sessions {
			tok, err := servingSession(base)
			if err != nil {
				return err
			}
			sessions[i] = tok
		}
		// Offered load scales with the session count; the last cell
		// overshoots the admission pool's capacity on purpose.
		opt := ServingLoadOptions{
			Rate:     float64(clients) * 30,
			Duration: 2 * time.Second,
			Mix:      mix,
			Sessions: sessions,
		}
		lr, err := RunServingLoad(base, opt)
		if err != nil {
			return err
		}
		cell := ServingCell{Clients: clients, RateQPS: opt.Rate, ServingLoadResult: lr}
		report.Cells = append(report.Cells, cell)
		e.logf("%8d %10.0f %10.1f %8d %8d %8d %9.2f %9.2f %9.2f\n",
			clients, opt.Rate, lr.AchievedQPS, lr.Rejected503, lr.Timeout504,
			lr.OtherErrors+lr.Client4xx, lr.P50Ms, lr.P95Ms, lr.P99Ms)
	}

	outDir := e.ReportDir
	if outDir == "" {
		outDir = "."
	}
	path := filepath.Join(outDir, "BENCH_serving.json")
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	e.logf("wrote %s\n", path)
	return nil
}

// servingMix builds the default weighted query mix: cheap selections
// dominate, similarity-index searches carry real work, and a heavy
// aggregation occupies admission slots long enough to matter.
func servingMix(name, jf, ef string, jvals, evals []string) []ServingQuery {
	exact := make([]string, 0, len(evals))
	for _, v := range evals {
		exact = append(exact, fmt.Sprintf(
			"count(for $r in dataset %s where $r.%s = '%s' return $r.id)",
			name, ef, quoteAQL(v)))
	}
	jaccard := make([]string, 0, len(jvals))
	for _, v := range jvals {
		jaccard = append(jaccard, fmt.Sprintf(
			`count(for $r in dataset %s
			 where similarity-jaccard(word-tokens($r.%s), word-tokens('%s')) >= 0.8
			 return $r.id)`, name, jf, quoteAQL(v)))
	}
	edit := make([]string, 0, len(evals))
	for _, v := range evals {
		edit = append(edit, fmt.Sprintf(
			`count(for $r in dataset %s
			 where edit-distance($r.%s, '%s') <= 1
			 return $r.id)`, name, ef, quoteAQL(v)))
	}
	heavy := []string{fmt.Sprintf(
		`count(for $r in dataset %s
		 where similarity-jaccard(word-tokens($r.%s), word-tokens('great product quality')) >= 0.3
		 return $r.id)`, name, jf)}
	return []ServingQuery{
		{Name: "exact", Weight: 4, Statements: exact},
		{Name: "jaccard-index", Weight: 3, Statements: jaccard},
		{Name: "edit-distance-index", Weight: 2, Statements: edit},
		{Name: "heavy-scan", Weight: 1, Statements: heavy},
	}
}

// servingSession creates one server-side session for the load phase.
func servingSession(base string) (string, error) {
	resp, err := http.Post(base+"/sessions", "application/json", strings.NewReader("{}"))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		return "", fmt.Errorf("bench: create session: status %d: %s", resp.StatusCode, b)
	}
	var out struct {
		Session string `json:"session"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return "", err
	}
	return out.Session, nil
}
