package cluster

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"simdb/internal/adm"
	"simdb/internal/algebra"
	"simdb/internal/aqlp"
	"simdb/internal/hyracks"
	"simdb/internal/invindex"
	"simdb/internal/obs"
	"simdb/internal/obs/trace"
	"simdb/internal/optimizer"
	"simdb/internal/storage"
)

// QueryStats reports one query's execution profile.
type QueryStats struct {
	// QueryID is the process-wide stable ID assigned at admission; the
	// same ID stamps the trace, slow-log line, spill directory, pprof
	// label and any error payload.
	QueryID uint64
	// AdmissionNs is the time spent waiting for a QueryManager slot.
	AdmissionNs int64
	ParseNs     int64
	TranslateNs int64
	OptimizeNs  int64
	JobGenNs    int64
	ExecNs      int64 // real wall time of the parallel job

	// PlanCacheHit is true when the compiled-plan cache served this
	// query: parse, translate, and optimize were skipped entirely and
	// their Ns fields are zero.
	PlanCacheHit bool

	MaxNodeBusyNs int64
	TotalBusyNs   int64
	MaxNodeTuples int64
	BytesShuffled int64
	NetMessages   int64

	// RowsOut is the result row count, whether rows were buffered into
	// Result.Rows or streamed through a StreamHandler (where Result.Rows
	// stays nil).
	RowsOut int64

	// MemBudget is the operator memory budget the query ran under (0 =
	// unlimited); MemHighWater is the accountant's peak reservation and
	// SpillRuns/SpilledBytes total the run files operators wrote past the
	// budget. All zero for unbudgeted queries.
	MemBudget    int64
	MemHighWater int64
	SpillRuns    int64
	SpilledBytes int64

	IndexSearches   int64
	CandidatesTotal int64
	// PrunedTotal counts the ids the index searches' count filter
	// dropped after they reached T.
	PrunedTotal  int64
	PostingsRead int64
	// VerifiedTotal counts index candidates that survived the global
	// verification select; OccurrenceT is the largest T-occurrence
	// threshold any index search used.
	VerifiedTotal int64
	OccurrenceT   int64
	// CornerCaseFallbacks counts similarity predicates the optimizer
	// left on the scan plan because of a compile-time corner case.
	CornerCaseFallbacks int

	PlanOps     int
	LogicalPlan string
	RuleTrace   []string

	// Memo is the outcome of each memo operator of the plan, by key:
	// "hit" (its entry replayed), "miss" (its input ran) or "off" (the
	// tcp transport, which runs every input).
	Memo map[string]string

	// Spans is the job's one execution record: an entry per operator
	// instance, from every process that ran part of it. The busy, tuple
	// and spill figures above and PhysicalOps are folds over it.
	Spans []hyracks.OpSpan
}

// PhysicalOps returns the per-operator table in job order.
func (s *QueryStats) PhysicalOps() []hyracks.OpStats { return hyracks.AggregateOps(s.Spans) }

// Result is a query's outcome.
type Result struct {
	Rows  []adm.Value
	Stats QueryStats
}

// Session carries statement-scoped state (use/set) across Execute
// calls, like one AsterixDB client connection.
//
// Ownership: a Session belongs to a single goroutine (one client
// connection). Execute mutates it (use/set/DDL statements), so sharing
// one Session across goroutines races; give each concurrent client its
// own Session instead. Execution itself snapshots the session's state
// per query, so the running query never re-reads the Session after
// Execute's statement phase.
type Session struct {
	Dataverse    string
	SimFunction  string
	SimThreshold string
	// MemoryBudget is this session's per-query operator memory budget:
	// 0 inherits Config.QueryMemoryBudget, a positive value overrides it,
	// and -1 (`set memorybudget 'unlimited';`) disables budgeting even
	// when the config sets a default.
	MemoryBudget int64
	// Opts overrides the optimizer options; nil means defaults. A session
	// carrying an override is an ablation run: like `explain`, its
	// requests neither probe nor store in the plan cache, so a cache entry
	// is a function of what a client can send.
	Opts *optimizer.Options
}

// NewSession returns a session with the Default dataverse.
func NewSession() *Session { return &Session{Dataverse: "Default"} }

// sessionState is an immutable per-query snapshot of the session fields
// that feed compilation. Taking it by value decouples the running query
// from later Session mutations.
type sessionState struct {
	Dataverse    string
	SimFunction  string
	SimThreshold string
	MemoryBudget int64
	Opts         optimizer.Options
}

// snapshotSession captures the compile-relevant session state. The
// session's memory budget resolves against the cluster default into
// Opts.MemoryBudgetBytes, the value budget-aware optimizer rules see,
// admission charges, the job runs under and the plan-cache key carries.
func (c *Cluster) snapshotSession(s *Session) sessionState {
	st := sessionState{
		Dataverse:    s.Dataverse,
		SimFunction:  s.SimFunction,
		SimThreshold: s.SimThreshold,
		MemoryBudget: s.MemoryBudget,
		Opts:         optimizer.DefaultOptions(),
	}
	if s.Opts != nil {
		st.Opts = *s.Opts
	}
	if st.Opts.MemoryBudgetBytes == 0 {
		st.Opts.MemoryBudgetBytes = c.resolveMemoryBudget(s.MemoryBudget)
	} else if st.Opts.MemoryBudgetBytes < 0 {
		st.Opts.MemoryBudgetBytes = 0
	}
	return st
}

// resolveMemoryBudget turns a session budget into the effective
// per-query budget in bytes (0 = unlimited).
func (c *Cluster) resolveMemoryBudget(sessBudget int64) int64 {
	switch {
	case sessBudget < 0:
		return 0
	case sessBudget > 0:
		return sessBudget
	default:
		return c.cfg.QueryMemoryBudget
	}
}

// StreamHandler receives a streamed query's lifecycle callbacks. OnRow
// is invoked once per result row, in result order, from the job's
// collector goroutine WHILE the job is still running: a slow OnRow
// exerts backpressure through the runtime's bounded frame channels, so
// per-query buffering stays bounded by a frame multiple rather than the
// result size. A job that replays a join memo entry is the exception: it
// buffers its rows, since it may have to run again, and delivers them
// once it is done. An OnRow error aborts the query. OnQueryID, when set, is
// called once with the query's stable ID before admission — front ends
// use it to expose the ID (for cancellation) ahead of the first row.
type StreamHandler struct {
	OnQueryID func(id uint64)
	OnRow     func(v adm.Value) error
}

// deliver pushes buffered rows (explain output, plan text) through the
// handler in order.
func (h *StreamHandler) deliver(rows []adm.Value) error {
	for _, r := range rows {
		if err := h.OnRow(r); err != nil {
			return err
		}
	}
	return nil
}

// Execute runs a full AQL request — statements then an optional query —
// and returns the query result (nil Rows for statement-only requests).
// Execution is admission-controlled: at most Config.MaxConcurrentQueries
// requests run at once and Config.QueryTimeout (if set) bounds each
// one. Cancellation of ctx propagates through the runtime into storage
// scans.
func (c *Cluster) Execute(ctx context.Context, sess *Session, src string) (*Result, error) {
	return c.executeRequest(ctx, sess, src, nil)
}

// ExecuteStream runs a request like Execute but delivers result rows
// incrementally through h instead of buffering them: the returned
// Result has nil Rows and h.OnRow sees each row as the engine produces
// it. Everything else — admission, timeouts, the plan cache, typed
// errors — behaves identically.
func (c *Cluster) ExecuteStream(ctx context.Context, sess *Session, src string, h StreamHandler) (*Result, error) {
	if h.OnRow == nil {
		return nil, fmt.Errorf("cluster: ExecuteStream needs an OnRow handler")
	}
	return c.executeRequest(ctx, sess, src, &h)
}

func (c *Cluster) executeRequest(ctx context.Context, sess *Session, src string, stream *StreamHandler) (*Result, error) {
	if sess == nil {
		sess = NewSession()
	}
	t0 := time.Now()
	queriesTotal.Inc()
	// Every query gets a stable process-wide ID, a live-registry entry
	// (GET /queries, CancelQuery), and a trace. The cancel func covers
	// the whole lifecycle, so cancellation lands whether the query is
	// still waiting for admission or already executing.
	qid := trace.NextQueryID()
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	qr := c.registerQuery(qid, src, cancel)
	qr.stream = stream
	if stream != nil && stream.OnQueryID != nil {
		// Announce the ID before admission, so a front end can expose it
		// (e.g. for cancellation) while the query still waits for a slot.
		stream.OnQueryID(qid)
	}
	// Admission charges the budget in effect at request entry; a `set
	// memorybudget` inside this request applies from the next one.
	entry := c.snapshotSession(sess)
	qctx, release, admitNs, err := c.qm.admit(cctx, entry.Opts.MemoryBudgetBytes)
	if err != nil {
		queryErrors.Inc()
		err = &QueryError{QueryID: qid, Err: err}
		c.unregisterQuery(qr, err)
		return nil, err
	}
	qr.tr.SpanAt(trace.RootSpan, "admission", trace.CatPhase,
		time.Now().Add(-time.Duration(admitNs)), time.Duration(admitNs))
	res, err := c.execute(qctx, sess, entry, src, admitNs, qr)
	if stream != nil && err == nil && res != nil && len(res.Rows) > 0 {
		// Paths that buffer (explain, explain analyze, a job that
		// replays a memo entry) deliver their rows through the stream
		// here so streamed requests never carry rows in the Result.
		err = stream.deliver(res.Rows)
		res.Rows = nil
	}
	// release classifies the error: a per-query deadline kill comes back
	// wrapped in ErrQueryTimeout.
	err = release(err)
	wallNs := time.Since(t0).Nanoseconds()
	queryLatency.Observe(wallNs)
	if err != nil {
		queryErrors.Inc()
		err = &QueryError{QueryID: qid, Err: err}
	}
	if res != nil {
		res.Stats.QueryID = qid
	}
	c.unregisterQuery(qr, err)
	if th := c.cfg.SlowQueryThreshold; th > 0 && wallNs >= th.Nanoseconds() {
		c.logSlowQuery(qid, src, wallNs, res, err)
	}
	return res, err
}

// isExplainRequest reports whether normalized request text carries a
// leading `explain` keyword, before any parse happens. Explain requests
// bypass the plan cache on both lookup and store: a cached plan replay
// would lose the explain rendering.
func isExplainRequest(norm string) bool {
	return norm == "explain" || strings.HasPrefix(norm, "explain ") || strings.HasPrefix(norm, "explain(")
}

// execute runs one admitted request: plan-cache fast path, else
// parse → statements → compile (+ cache store) → run. entry is the
// session snapshot taken at request entry, before any statement ran.
func (c *Cluster) execute(ctx context.Context, sess *Session, entry sessionState, src string, admitNs int64, qr *queryRun) (*Result, error) {
	norm := normalizeAQL(src)
	key := planKey{
		text:         norm,
		dataverse:    entry.Dataverse,
		simFunction:  entry.SimFunction,
		simThreshold: entry.SimThreshold,
		memBudget:    entry.Opts.MemoryBudgetBytes,
	}
	// Explain requests and ablation sessions stay out of the plan cache.
	useCache := !isExplainRequest(norm) && sess.Opts == nil
	// Epoch is read before the lookup AND before any compile below: an
	// entry stored under this epoch can never reflect catalog state
	// newer than what its key claims, so DDL invalidation is sound.
	epoch := c.Catalog.Epoch()
	if useCache {
		qr.setPhase(phasePlanCache)
		lookup := qr.tr.StartSpan(trace.RootSpan, "plan-cache", trace.CatPhase)
		e, ok := c.planCache.get(key, epoch)
		lookup.End(trace.S("outcome", cacheOutcome(ok)))
		if ok {
			// Warm hit: skip parse, translate, and optimize entirely. Replay
			// the request's session effects (use/set), then execute a private
			// deep copy of the cached plan.
			sess.Dataverse = e.post.Dataverse
			sess.SimFunction = e.post.SimFunction
			sess.SimThreshold = e.post.SimThreshold
			sess.MemoryBudget = e.post.MemoryBudget
			stats := &QueryStats{
				AdmissionNs:         admitNs,
				PlanCacheHit:        true,
				PlanOps:             e.planOps,
				LogicalPlan:         e.logicalPlan,
				RuleTrace:           append([]string(nil), e.ruleTrace...),
				CornerCaseFallbacks: e.cornerCases,
			}
			sp := qr.tr.StartSpan(trace.RootSpan, "plan-copy", trace.CatPhase)
			plan, _ := algebra.Copy(e.plan, &algebra.VarAlloc{})
			sp.End()
			return c.runJob(ctx, plan, stats, src, e.post, qr)
		}
	}

	qr.setPhase(phaseParse)
	t0 := time.Now()
	q, err := aqlp.Parse(src)
	parseNs := time.Since(t0).Nanoseconds()
	qr.tr.SpanAt(trace.RootSpan, "parse", trace.CatPhase, t0, time.Duration(parseNs))
	if err != nil {
		return nil, planErr(err)
	}

	// Only requests whose statements are all session-scoped (use/set)
	// are cacheable: their full effect is captured by the key's entry
	// state and the entry's recorded post state. DDL and other
	// statements bypass the cache (and bump the catalog epoch).
	cacheable := useCache && !q.Explain
	for _, stmt := range q.Stmts {
		switch stmt.(type) {
		case aqlp.UseStmt, aqlp.SetStmt:
		case aqlp.CreateFunctionStmt:
			cacheable = false
			// Log the raw source BEFORE applying: catalog snapshots
			// replicate UDFs to worker processes by replaying these
			// sources, and a snapshot cut between SetFunc and the note
			// would otherwise ship the bumped epoch without the function.
			c.Catalog.noteFuncDDL(src)
		default:
			cacheable = false
		}
		if err := c.executeStmt(sess, stmt); err != nil {
			return nil, planErr(err)
		}
	}
	if q.Body == nil {
		if q.Explain {
			return nil, planErr(fmt.Errorf("cluster: explain needs a query body"))
		}
		return &Result{Stats: QueryStats{AdmissionNs: admitNs, ParseNs: parseNs}}, nil
	}

	qr.setPhase(phaseCompile)
	st := c.snapshotSession(sess)
	compileSpan := qr.tr.StartSpan(trace.RootSpan, "compile", trace.CatPhase)
	plan, stats, err := c.compileState(st, q.Body)
	if err != nil {
		compileSpan.End(trace.S("error", err.Error()))
		return nil, planErr(err)
	}
	compileSpan.End(
		trace.I("translate_ns", stats.TranslateNs),
		trace.I("optimize_ns", stats.OptimizeNs),
		trace.I("plan_ops", int64(stats.PlanOps)),
	)
	stats.ParseNs = parseNs
	stats.AdmissionNs = admitNs

	if q.Explain && !q.Analyze {
		// Bare explain: compile only, rows are the optimized plan text.
		stats.QueryID = qr.id
		return &Result{Rows: planRows(stats.LogicalPlan), Stats: *stats}, nil
	}

	if cacheable {
		cached, _ := algebra.Copy(plan, &algebra.VarAlloc{})
		c.planCache.put(&planEntry{
			key:         key,
			plan:        cached,
			epoch:       epoch,
			post:        st,
			planOps:     stats.PlanOps,
			logicalPlan: stats.LogicalPlan,
			ruleTrace:   append([]string(nil), stats.RuleTrace...),
			cornerCases: stats.CornerCaseFallbacks,
		})
	}
	if q.Analyze {
		// explain analyze output is the annotated plan, assembled after
		// execution: buffer the query's own rows (they only feed the row
		// count); executeRequest streams the analysis text afterwards.
		qr.stream = nil
	}
	res, err := c.runJob(ctx, plan, stats, src, st, qr)
	if err == nil && q.Analyze {
		res.Stats.QueryID = qr.id
		res.Rows = explainAnalyzeRows(res)
	}
	return res, err
}

// cacheOutcome labels a plan-cache lookup span.
func cacheOutcome(hit bool) string {
	if hit {
		return "hit"
	}
	return "miss"
}

// planRows renders a plan text as one result row per line.
func planRows(plan string) []adm.Value {
	lines := strings.Split(strings.TrimRight(plan, "\n"), "\n")
	rows := make([]adm.Value, len(lines))
	for i, l := range lines {
		rows[i] = adm.NewString(l)
	}
	return rows
}

// sessionSettings is every key a `set` statement accepts, with how its
// value lands on the session.
var sessionSettings = map[string]func(sess *Session, val string) error{
	"simfunction":  func(sess *Session, val string) error { sess.SimFunction = val; return nil },
	"simthreshold": func(sess *Session, val string) error { sess.SimThreshold = val; return nil },
	"memorybudget": func(sess *Session, val string) error {
		b, err := aqlp.ParseMemorySize(val)
		if err != nil {
			return fmt.Errorf("cluster: set memorybudget: %w", err)
		}
		if b == 0 {
			// Explicitly unlimited, overriding any configured default.
			b = -1
		}
		sess.MemoryBudget = b
		return nil
	},
}

func (c *Cluster) executeStmt(sess *Session, stmt aqlp.Stmt) error {
	switch s := stmt.(type) {
	case aqlp.UseStmt:
		if !c.Catalog.HasDataverse(s.Dataverse) {
			return fmt.Errorf("cluster: unknown dataverse %q", s.Dataverse)
		}
		sess.Dataverse = s.Dataverse
		return nil
	case aqlp.SetStmt:
		apply, ok := sessionSettings[s.Key]
		if !ok {
			return fmt.Errorf("cluster: unknown set property %q", s.Key)
		}
		return apply(sess, s.Val)
	case aqlp.CreateDataverseStmt:
		return c.Catalog.CreateDataverse(s.Name)
	case aqlp.CreateDatasetStmt:
		_, err := c.Catalog.CreateDataset(sess.Dataverse, s.Name, s.PKField, s.AutoPK)
		return err
	case aqlp.CreateIndexStmt:
		ix := optimizer.IndexMeta{Name: s.Name, Field: s.Field, Type: s.IType, GramLen: s.GramLen}
		if s.IType != "btree" && s.IType != "keyword" && s.IType != "ngram" {
			return fmt.Errorf("cluster: unknown index type %q", s.IType)
		}
		if s.IType == "ngram" && s.GramLen < 1 {
			return fmt.Errorf("cluster: ngram index needs a gram length")
		}
		// Exclude concurrent inserts for the whole build+register window:
		// the bulk build sees a stable dataset and no insert runs against
		// a catalog entry that is about to change. Build BEFORE
		// registering — queries compile against the catalog without
		// taking ddlMu, so the index must be complete by the time it
		// becomes visible to the optimizer.
		c.ddlMu.Lock()
		defer c.ddlMu.Unlock()
		meta, ok := c.Catalog.Dataset(sess.Dataverse, s.Dataset)
		if !ok {
			return fmt.Errorf("cluster: unknown dataset %s.%s", sess.Dataverse, s.Dataset)
		}
		for _, existing := range meta.Indexes {
			if existing.Name == s.Name {
				return fmt.Errorf("cluster: index %q exists on %q", s.Name, s.Dataset)
			}
		}
		if err := c.BuildIndex(sess.Dataverse, s.Dataset, ix); err != nil {
			return err
		}
		if err := c.Catalog.AddIndex(sess.Dataverse, s.Dataset, ix); err != nil {
			return err
		}
		obs.Log().Info("index created",
			"dataverse", sess.Dataverse, "dataset", s.Dataset,
			"index", s.Name, "type", s.IType)
		return nil
	case aqlp.CreateFunctionStmt:
		c.Catalog.SetFunc(s.Name, aqlp.FuncDef{Params: s.Params, Body: s.Body})
		return nil
	case aqlp.DropDatasetStmt:
		return c.DropDataset(sess.Dataverse, s.Name)
	}
	return fmt.Errorf("cluster: unsupported statement %T", stmt)
}

// Compile parses a request, applies its use/set statements to sess the
// way Execute does, and translates and optimizes the body without
// running it; used by plan-inspection tooling and the Figure 15
// experiment. Any other statement, or a request without a body, is an
// error.
func (c *Cluster) Compile(sess *Session, src string) (*algebra.Op, *QueryStats, error) {
	if sess == nil {
		sess = NewSession()
	}
	q, err := aqlp.Parse(src)
	if err != nil {
		return nil, nil, err
	}
	for _, stmt := range q.Stmts {
		switch stmt.(type) {
		case aqlp.UseStmt, aqlp.SetStmt:
		default:
			return nil, nil, fmt.Errorf("cluster: Compile accepts only use/set statements")
		}
		if err := c.executeStmt(sess, stmt); err != nil {
			return nil, nil, err
		}
	}
	if q.Body == nil {
		return nil, nil, fmt.Errorf("cluster: Compile needs a query body")
	}
	return c.compileState(c.snapshotSession(sess), q.Body)
}

// compileState translates and optimizes against an immutable session
// snapshot, so compilation never races Session mutations.
func (c *Cluster) compileState(st sessionState, body aqlp.Node) (*algebra.Op, *QueryStats, error) {
	stats := &QueryStats{}
	alloc := &algebra.VarAlloc{}
	tr := &aqlp.Translator{
		Catalog:          c.Catalog,
		Alloc:            alloc,
		DefaultDataverse: st.Dataverse,
		SimFunction:      st.SimFunction,
		SimThreshold:     st.SimThreshold,
		Funcs:            c.Catalog.Funcs(),
	}
	t0 := time.Now()
	plan, err := tr.TranslateQuery(body)
	if err != nil {
		return nil, nil, err
	}
	stats.TranslateNs = time.Since(t0).Nanoseconds()

	var cs optimizer.CompileStats
	o := &optimizer.Optimizer{Catalog: c.Catalog, Alloc: alloc, Opts: st.Opts, Trace: &stats.RuleTrace, Stats: &cs}
	t0 = time.Now()
	plan, err = o.Optimize(plan)
	if err != nil {
		return nil, nil, err
	}
	stats.OptimizeNs = time.Since(t0).Nanoseconds()
	stats.CornerCaseFallbacks = cs.CornerCaseFallbacks
	stats.PlanOps = algebra.CountOps(plan)
	stats.LogicalPlan = algebra.Print(plan)
	return plan, stats, nil
}

// localJob is one process's half of a query job: the generated DAG and
// the topology it runs on, under a memory accountant with this process's
// own spill directory when budgeted. The coordinator and every tcp
// worker build and run theirs through newLocalJob and run, so placement,
// budgeting, spill cleanup and the pprof label cannot differ between
// them.
type localJob struct {
	job       *hyracks.Job
	collector *hyracks.Collector
	topo      hyracks.Topology
	// gen is the job's generator: its memo outcomes, the captures
	// stored once the job succeeds, and the versions they were read at.
	gen *jobGen
}

// newLocalJob generates the job for plan and lays out its topology. net
// is nil unless nodes live in other processes. tOccAlgo is the solver
// the coordinator chose for the job; a worker is handed it in the job
// request.
func (c *Cluster) newLocalJob(plan *algebra.Op, counters *QueryCounters, id uint64, memBudget int64, net hyracks.Transport, tOccAlgo invindex.Algorithm, replay bool) (*localJob, error) {
	g, collector, err := c.generateJob(plan, counters, tOccAlgo, replay)
	if err != nil {
		return nil, err
	}
	lj := &localJob{job: g.job, collector: collector, gen: g, topo: hyracks.Topology{
		Partitions:      c.cfg.Partitions(),
		PartsPerNode:    c.cfg.PartitionsPerNode,
		NetFrameLatency: time.Duration(c.simNetLat.Load()),
		FrameSize:       c.cfg.FrameSize,
		ChanCap:         c.cfg.ChanCap,
		Transport:       net,
		JobID:           id,
	}}
	if acct := hyracks.NewMemoryAccountant(memBudget); acct != nil {
		// The coordinator spills under q<id>, worker k under q<id>n<k>, so
		// processes sharing DataDir never collide.
		dir := fmt.Sprintf("q%d", id)
		if c.localNode > 0 {
			dir = fmt.Sprintf("q%dn%d", id, c.localNode)
		}
		lj.topo.Mem = acct
		lj.topo.Spill = storage.NewRunFileManager(filepath.Join(c.spillTmpRoot(), dir))
	}
	return lj, nil
}

// run executes the instances placed on this process and removes the
// spill directory before returning on every path (success, error,
// cancel, timeout, panic). Executor goroutines inherit the query_id
// pprof label, so CPU and goroutine profiles of any process attribute
// work to specific queries.
func (lj *localJob) run(ctx context.Context) (jstats *hyracks.JobStats, err error) {
	if lj.topo.Spill != nil {
		defer lj.topo.Spill.Close()
	}
	pprof.Do(ctx, pprof.Labels("query_id", strconv.FormatUint(lj.topo.JobID, 10)), func(ctx context.Context) {
		jstats, err = hyracks.Run(ctx, lj.job, lj.topo)
	})
	return jstats, err
}

// traceOperators writes a job's instance records into the query's trace
// under the execute span, each on its node's lane. A span sits at its
// offset from execStart: the coordinator's own instances exactly, a
// worker's shifted by the dispatch delay its process started the job
// with — offsets, because the clocks of two processes are not comparable.
func traceOperators(tr *trace.Trace, parent int32, execStart time.Time, spans []hyracks.OpSpan) {
	if tr == nil {
		return
	}
	for i := range spans {
		sp := &spans[i]
		tr.SpanAtOn(parent, sp.Op, trace.CatOperator, sp.Node, sp.Part,
			execStart.Add(time.Duration(sp.StartNs)), time.Duration(sp.WallNs),
			trace.I("busy_ns", sp.BusyNs),
			trace.I("tuples_in", sp.TuplesIn),
			trace.I("tuples_out", sp.TuplesOut),
		)
	}
}

// runJob generates and executes the hyracks job for a compiled plan,
// filling in the runtime half of stats.
//
// In tcp mode the job is dispatched to every worker process BEFORE the
// local run starts: the local run hosts node 0's instances (among them
// the collector) and is what drains the frames the workers ship here.
// Workers recompile the shipped request text to the identical DAG and
// return the instance records of their half, which the coordinator
// merges into the result and into the query's trace.
//
// A job that replayed a memo entry and overlapped the start of a write
// to that entry's dataset is run once more without replaying: its live
// side may have read records the replayed entry does not reflect.
func (c *Cluster) runJob(ctx context.Context, plan *algebra.Op, stats *QueryStats, src string, st sessionState, qr *queryRun) (*Result, error) {
	res, err := c.runJobOnce(ctx, plan, stats, src, st, qr, true)
	if err == errMemoMoved {
		c.memo.reruns.Add(1)
		res, err = c.runJobOnce(ctx, plan, stats, src, st, qr, false)
	}
	return res, err
}

// errMemoMoved is runJobOnce's report of a job whose replayed memo entry
// a write began to invalidate while it ran.
var errMemoMoved = errors.New("cluster: memo entry invalidated during the job")

// runJobOnce is one generation and execution of runJob's job, replaying
// memo entries if replay is set.
func (c *Cluster) runJobOnce(ctx context.Context, plan *algebra.Op, stats *QueryStats, src string, st sessionState, qr *queryRun, replay bool) (*Result, error) {
	memBudget := st.Opts.MemoryBudgetBytes
	qr.setPhase(phaseJobGen)
	counters := &QueryCounters{}
	var net hyracks.Transport
	if c.remote != nil {
		net = c.remote.net
	}
	t0 := time.Now()
	tOccAlgo := c.tOccAlgo.Load()
	lj, err := c.newLocalJob(plan, counters, qr.id, memBudget, net, invindex.Algorithm(tOccAlgo), replay)
	if err != nil {
		return nil, fmt.Errorf("%w\nplan:\n%s", err, stats.LogicalPlan)
	}
	stats.JobGenNs = time.Since(t0).Nanoseconds()
	qr.tr.SpanAt(trace.RootSpan, "jobgen", trace.CatPhase, t0, time.Duration(stats.JobGenNs))

	// A job that replays a memo entry buffers its rows even when the
	// query streams: it may have to run again, and executeRequest
	// delivers buffered rows through the stream.
	stream := qr.stream != nil && len(lj.gen.memoHits) == 0
	if stream {
		// Streaming delivery: the collector hands each result tuple to the
		// handler as it arrives instead of buffering it. The handler runs
		// on the collector's goroutine, so a slow consumer backpressures
		// the job through the bounded frame channels; a handler error
		// (client gone) aborts the job.
		onRow := qr.stream.OnRow
		lj.collector.Sink = func(t hyracks.Tuple) error { return onRow(t[0]) }
	}
	if acct := lj.topo.Mem; acct != nil {
		stats.MemBudget = acct.Budget()
		if qr.aq != nil {
			qr.aq.mem.Store(acct)
		}
	}
	var remoteCh <-chan remoteJobResult
	if c.remote != nil {
		rctx, cancelLocal := context.WithCancel(ctx)
		defer cancelLocal()
		ctx = rctx
		remoteCh = c.remote.startJob(ctx, cancelLocal, jobReq{
			JobID:    qr.id,
			Src:      src,
			State:    st,
			Epoch:    c.Catalog.Epoch(),
			TOccAlgo: tOccAlgo,
		})
	}
	qr.setPhase(phaseExecute)
	execStart := time.Now()
	execSpan := qr.tr.StartSpan(trace.RootSpan, "execute", trace.CatPhase)
	jstats, err := lj.run(ctx)
	if remoteCh != nil {
		if err != nil {
			// The local half died (error or cancellation): abort the
			// workers' halves too, or their senders would wait forever on
			// flow-control credit for frames node 0 no longer drains.
			c.remote.cancelJob(qr.id)
		}
		rres := <-remoteCh
		c.remote.net.EndJob(qr.id)
		if err == nil {
			err = rres.err
		}
		if err == nil {
			for _, ws := range rres.stats {
				jstats.Merge(ws)
			}
			for _, cv := range rres.counters {
				mergeCounters(counters, cv)
			}
		}
	}
	if jstats == nil {
		execSpan.End()
		return nil, err
	}
	execSpan.End(
		trace.I("bytes_shuffled", jstats.BytesShuffled),
		trace.I("net_messages", jstats.NetMessages),
	)
	traceOperators(qr.tr, execSpan.ID, execStart, jstats.Spans)
	if err != nil {
		return nil, err
	}
	c.commitMemos(lj.gen.memoCaps)
	if lj.gen.replayMoved() {
		return nil, errMemoMoved
	}
	stats.Memo = lj.gen.memoUse
	if lj.topo.Mem != nil {
		stats.MemHighWater = lj.topo.Mem.HighWater()
	}
	stats.ExecNs = jstats.WallNs
	stats.MaxNodeBusyNs = jstats.MaxNodeBusyNs()
	stats.TotalBusyNs = jstats.TotalBusyNs()
	stats.MaxNodeTuples = jstats.MaxNodeTuples()
	stats.BytesShuffled = jstats.BytesShuffled
	stats.NetMessages = jstats.NetMessages
	stats.SpillRuns, stats.SpilledBytes = jstats.SpillTotals()
	stats.Spans = jstats.Spans
	stats.IndexSearches = counters.IndexSearches.Load()
	stats.CandidatesTotal = counters.CandidatesTotal.Load()
	stats.PrunedTotal = counters.PrunedTotal.Load()
	stats.PostingsRead = counters.PostingsRead.Load()
	stats.VerifiedTotal = counters.VerifiedTotal.Load()
	stats.OccurrenceT = counters.OccurrenceT.Load()

	var rows []adm.Value
	if !stream {
		rows = make([]adm.Value, len(lj.collector.Tuples))
		for i, t := range lj.collector.Tuples {
			rows[i] = t[0]
		}
	}
	res := &Result{Rows: rows, Stats: *stats}
	res.Stats.RowsOut = lj.collector.Delivered.Load()
	return res, nil
}
