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
	"simdb/internal/obs"
	"simdb/internal/obs/trace"
	"simdb/internal/optimizer"
	"simdb/internal/storage"
)

// QueryStats reports one query's execution profile.
type QueryStats struct {
	// QueryID is the process-wide stable ID assigned at admission; the
	// same ID stamps the trace, slow-log record, spill directory, pprof
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
	ScanPassed    int64 // rows the scans passed on (QueryCounters.ScanPassed)
	// CornerCaseFallbacks counts similarity predicates the optimizer
	// left on the scan plan because of a compile-time corner case.
	CornerCaseFallbacks int

	PlanOps   int
	RuleTrace []string
	// plan is the optimized plan the query ran, and params the literals
	// its tagged constants took: nil for a plan run as compiled, the
	// request's own for a plan-cache hit, whose plan is the entry's,
	// shared. LogicalPlan prints the two bound together.
	plan   *algebra.Op
	params []adm.Value

	// Memo is the outcome of each memo operator of the plan, by key:
	// "hit" (its entry replayed), "miss" (its input ran) or "off" (the
	// tcp transport, which runs every input).
	Memo map[string]string

	// Spans is the job's one execution record: an entry per operator
	// instance, from every process that ran part of it. The busy, tuple
	// and spill figures above and PhysicalOps are folds over it.
	Spans []hyracks.OpSpan
}

// LogicalPlan prints the optimized logical plan the query ran (with its
// own literals, also when the plan cache served it), or "" for a request
// without one. It prints on each call: nothing is printed unless asked,
// and a hit's plan is bound to its literals (algebra.BindCopy) only here.
func (s *QueryStats) LogicalPlan() string {
	switch {
	case s.plan == nil:
		return ""
	case s.params != nil:
		return algebra.Print(algebra.BindCopy(s.plan, s.params))
	}
	return algebra.Print(s.plan)
}

// KindCounts counts the operators of the plan the query ran by kind, the
// counts of the paper's Figure 15; none for a request without a plan.
func (s *QueryStats) KindCounts() map[string]int {
	counts := map[string]int{}
	algebra.Walk(s.plan, func(op *algebra.Op) { counts[op.Kind.String()]++ })
	return counts
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
	// MemoryBudget is this session's per-query operator memory budget
	// (`set memorybudget '32m';`): 0 inherits the cluster's default —
	// unlimited unless SIMDB_TEST_MEMORY_BUDGET sets one — a positive
	// value overrides it, and -1 (`set memorybudget 'unlimited';`)
	// disables budgeting even under that default.
	MemoryBudget int64
	// Opts overrides the optimizer options; nil means defaults. Its
	// MemoryBudgetBytes is ignored: the budget comes from MemoryBudget
	// alone. A session carrying an override is an ablation run: its
	// requests, explain ones too, neither probe nor store in the plan
	// cache, so a cache entry is a function of what a client can send,
	// and every ablation compile is a fresh one.
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
// the job runs under and the plan-cache key carries.
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
	st.Opts.MemoryBudgetBytes = c.resolveMemoryBudget(s.MemoryBudget)
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
		return c.memBudget
	}
}

// StreamHandler receives a streamed query's lifecycle callbacks. OnRow
// is invoked once per result row, in result order, from the goroutine of
// the job's result sink WHILE the job is still running: a slow OnRow
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
	req := aqlp.Normalize(src)
	qr := &queryRun{
		id:     qid,
		tr:     c.tracer.Start(qid, truncateQuery(req.Canonical)),
		cancel: cancel,
		stream: stream,
	}
	// The admission span opens before the query is listed, so /queries
	// never shows it without a phase.
	admission := qr.tr.StartSpan(trace.RootSpan, "admission", trace.CatPhase)
	c.registerQuery(qr)
	if stream != nil && stream.OnQueryID != nil {
		// Announce the ID before admission, so a front end can expose it
		// (e.g. for cancellation) while the query still waits for a slot.
		stream.OnQueryID(qid)
	}
	entry := c.snapshotSession(sess)
	qctx, release, admitNs, err := c.qm.admit(cctx)
	admission.End()
	if err != nil {
		queryErrors.Inc()
		err = &QueryError{QueryID: qid, Err: err}
		c.unregisterQuery(qr, err)
		return nil, err
	}
	res, err := c.execute(qctx, sess, entry, src, req, admitNs, qr)
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
	queryLatency.Observe(time.Since(t0).Nanoseconds())
	if err != nil {
		queryErrors.Inc()
		err = &QueryError{QueryID: qid, Err: err}
	}
	if res == nil {
		c.unregisterQuery(qr, err)
		return nil, err
	}
	res.Stats.QueryID = qid
	c.unregisterQuery(qr, err, res.Stats.traceArgs()...)
	return res, err
}

// execute runs one admitted request in its mode. The plan comes from the
// plan cache, keyed on the text after the mode, or else from compile;
// then a bare explain prints it, and a query or explain analyze runs it.
// entry is the session snapshot taken at request entry, before any
// statement ran; req is src's aqlp.Normalize.
func (c *Cluster) execute(ctx context.Context, sess *Session, entry sessionState, src string, req aqlp.Request, admitNs int64, qr *queryRun) (*Result, error) {
	// The text after the mode is what parses, and what a tcp worker
	// compiles.
	src = src[req.At:]
	key := planKey{
		text:         req.Shape.Text,
		dataverse:    entry.Dataverse,
		simFunction:  entry.SimFunction,
		simThreshold: entry.SimThreshold,
		memBudget:    entry.Opts.MemoryBudgetBytes,
	}
	// Ablation sessions stay out of the plan cache, and so does a request
	// that cannot parse because it does not lex or a literal does not
	// read as a value (an int out of range).
	useCache := sess.Opts == nil && req.Shape.Lexed
	var vals []adm.Value
	if useCache {
		vals, useCache = paramValues(req.Shape.Params)
	}
	// Epoch is read before the lookup AND before any compile below: an
	// entry stored under this epoch can never reflect catalog state
	// newer than what its key claims, so DDL invalidation is sound.
	epoch := c.Catalog.Epoch()
	var e *planEntry
	if useCache {
		lookup := qr.tr.StartSpan(trace.RootSpan, "plan-cache", trace.CatPhase)
		e, _ = c.planCache.get(key, req.Shape, req.Body, epoch)
		lookup.End(trace.S("outcome", cacheOutcome(e != nil)))
	}
	stats := &QueryStats{AdmissionNs: admitNs, PlanCacheHit: e != nil}
	if e != nil {
		// Warm hit: skip parse, translate, and optimize entirely, and
		// replay the request's session effects (use/set).
		sess.Dataverse = e.post.Dataverse
		sess.SimFunction = e.post.SimFunction
		sess.SimThreshold = e.post.SimThreshold
		sess.MemoryBudget = e.post.MemoryBudget
	} else {
		var err error
		if e, err = c.compile(sess, src, req, key, useCache, epoch, stats, qr); err != nil {
			return nil, err
		}
		if e == nil { // statements only
			return &Result{Stats: *stats}, nil
		}
		vals = nil // a fresh plan holds the request's own literals
	}
	// The plan runs in place, shared with every hit of its entry: job
	// generation binds a hit's literals as it compiles the plan's
	// constants, and reads the entry's facts. The rule trace is the
	// entry's, capped so that an append by a reader copies it.
	n := len(e.ruleTrace)
	stats.PlanOps, stats.RuleTrace, stats.CornerCaseFallbacks = e.planOps, e.ruleTrace[:n:n], e.cornerCases
	stats.plan, stats.params = e.plan, vals

	switch req.Mode {
	case aqlp.Explain:
		stats.QueryID = qr.id
		return &Result{Rows: planRows(stats.LogicalPlan()), Stats: *stats}, nil
	case aqlp.Analyze:
		// explain analyze output is the annotated plan, assembled after
		// execution: buffer the query's own rows (they only feed the row
		// count); executeRequest streams the analysis text afterwards.
		qr.stream = nil
	}
	res, err := c.runJob(ctx, boundPlan{root: e.plan, params: vals, facts: e.facts}, stats, src, e.post, qr)
	if err == nil && req.Mode == aqlp.Analyze {
		res.Stats.QueryID = qr.id
		res.Rows = explainAnalyzeRows(res)
	}
	return res, err
}

// compile is execute's miss path: it parses src, the text after the
// request's mode, runs its statements on sess and compiles the body
// under the session they leave, adding the phase times to stats, and
// stores the plan under key when the request is cacheable. A request
// without a body has no plan (and is an error in an explain mode); a
// bare explain accepts only use/set statements, so it changes nothing
// but the session. cacheable is whether execute probed the cache, which
// counts as a miss only for a request with a body.
func (c *Cluster) compile(sess *Session, src string, req aqlp.Request, key planKey, cacheable bool, epoch uint64, stats *QueryStats, qr *queryRun) (*planEntry, error) {
	probed := cacheable
	parse := qr.tr.StartSpan(trace.RootSpan, "parse", trace.CatPhase)
	q, err := aqlp.Parse(src)
	stats.ParseNs = parse.End().Nanoseconds()
	if err != nil {
		return nil, planErr(err)
	}

	// Only requests whose statements are all session-scoped (use/set)
	// are cacheable: their full effect is captured by the key's entry
	// state and the entry's recorded post state. DDL and other
	// statements bypass the cache (and bump the catalog epoch).
	for _, stmt := range q.Stmts {
		switch stmt.(type) {
		case aqlp.UseStmt, aqlp.SetStmt:
		default:
			if req.Mode == aqlp.Explain {
				return nil, planErr(fmt.Errorf("cluster: explain accepts only use/set statements"))
			}
			cacheable = false
		}
		if _, ok := stmt.(aqlp.CreateFunctionStmt); ok {
			// Log the raw source BEFORE applying: catalog snapshots
			// replicate UDFs to worker processes by replaying these
			// sources, and a snapshot cut between SetFunc and the note
			// would otherwise ship the bumped epoch without the function.
			c.Catalog.noteFuncDDL(src)
		}
		if err := c.executeStmt(sess, stmt); err != nil {
			return nil, planErr(err)
		}
	}
	switch {
	case q.Body != nil:
	case req.Mode == aqlp.Run:
		return nil, nil
	default:
		return nil, planErr(fmt.Errorf("cluster: explain needs a query body"))
	}
	if probed {
		c.planCache.miss()
	}

	compileSpan := qr.tr.StartSpan(trace.RootSpan, "compile", trace.CatPhase)
	e, read, err := c.compileState(c.snapshotSession(sess), q.Body, stats)
	if err != nil {
		compileSpan.End(trace.S("error", err.Error()))
		return nil, planErr(err)
	}
	compileSpan.End(
		trace.I("translate_ns", stats.TranslateNs),
		trace.I("optimize_ns", stats.OptimizeNs),
		trace.I("plan_ops", int64(e.planOps)),
	)
	// From here on the plan is only read: a cacheable one is stored as it
	// is and shared with every hit, as are its facts.
	if cacheable {
		e.epoch = epoch
		c.planCache.put(key, req.Shape, req.Body, valueKeyed(e.plan, read, len(req.Shape.Params)), e)
	}
	return e, nil
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

// compileState translates and optimizes against an immutable session
// snapshot, so compilation never races Session mutations, and sets the
// phase times in stats. The result is an entry as the plan cache keeps
// it, but for its epoch. Constants translated from the body's literals
// carry their slots; read is the set of those slots whose value the
// translator or a rule read.
func (c *Cluster) compileState(st sessionState, body aqlp.Node, stats *QueryStats) (e *planEntry, read algebra.SlotSet, err error) {
	alloc := &algebra.VarAlloc{}
	var cs optimizer.CompileStats
	var rules []string
	tr := &aqlp.Translator{
		Catalog:          c.Catalog,
		Alloc:            alloc,
		DefaultDataverse: st.Dataverse,
		SimFunction:      st.SimFunction,
		SimThreshold:     st.SimThreshold,
		Funcs:            c.Catalog.Funcs(),
		ValueKeyed:       &cs.ValueKeyed,
	}
	t0 := time.Now()
	plan, err := tr.TranslateQuery(body)
	if err != nil {
		return nil, nil, err
	}
	stats.TranslateNs = time.Since(t0).Nanoseconds()

	o := &optimizer.Optimizer{Catalog: c.Catalog, Alloc: alloc, Opts: st.Opts, Trace: &rules, Stats: &cs}
	t0 = time.Now()
	plan, err = o.Optimize(plan)
	if err != nil {
		return nil, nil, err
	}
	stats.OptimizeNs = time.Since(t0).Nanoseconds()
	return &planEntry{
		plan:        plan,
		facts:       analyzePlan(plan),
		post:        st,
		planOps:     algebra.CountOps(plan),
		ruleTrace:   rules,
		cornerCases: cs.CornerCaseFallbacks,
	}, cs.ValueKeyed, nil
}

// valueKeyed returns the slots 1..n the plan cache keys plan on: all but
// the free ones, the slots of the plan's tagged constants that are not
// in read.
func valueKeyed(plan *algebra.Op, read algebra.SlotSet, n int) algebra.SlotSet {
	tagged := algebra.TaggedSlots(plan)
	var keyed algebra.SlotSet
	for slot := 1; slot <= n; slot++ {
		if !tagged.Has(slot) || read.Has(slot) {
			keyed.Add(slot)
		}
	}
	return keyed
}

// paramValues reads a request's literals as the parser does, in slot
// order; false if one does not read.
func paramValues(params []aqlp.Param) ([]adm.Value, bool) {
	vals := make([]adm.Value, len(params))
	for i, p := range params {
		v, err := p.Value()
		if err != nil {
			return nil, false
		}
		vals[i] = v
	}
	return vals, true
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

// newLocalJob generates the job for bp and lays out its topology. net
// is nil unless nodes live in other processes.
func (c *Cluster) newLocalJob(bp boundPlan, counters *QueryCounters, id uint64, memBudget int64, net hyracks.Transport, replay bool) (*localJob, error) {
	g, collector, err := c.generateJob(bp, counters, replay, memBudget)
	if err != nil {
		return nil, err
	}
	lj := &localJob{job: g.job, collector: collector, gen: g, topo: hyracks.Topology{
		Partitions:      c.cfg.Partitions(),
		PartsPerNode:    c.cfg.PartitionsPerNode,
		NetFrameLatency: time.Duration(c.simNetLat.Load()),
		FrameSize:       c.cfg.FrameSize,
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
// the result sink's) and is what drains the frames the workers ship here.
// Workers recompile the shipped request text to the identical DAG and
// return the instance records of their half, which the coordinator
// merges into the result and into the query's trace.
//
// A job that replayed a memo entry and overlapped the start of a write
// to that entry's dataset is run once more without replaying: its live
// side may have read records the replayed entry does not reflect.
func (c *Cluster) runJob(ctx context.Context, bp boundPlan, stats *QueryStats, src string, st sessionState, qr *queryRun) (*Result, error) {
	res, err := c.runJobOnce(ctx, bp, stats, src, st, qr, true)
	if err == errMemoMoved {
		c.memo.reruns.Add(1)
		res, err = c.runJobOnce(ctx, bp, stats, src, st, qr, false)
	}
	return res, err
}

// errMemoMoved is runJobOnce's report of a job whose replayed memo entry
// a write began to invalidate while it ran.
var errMemoMoved = errors.New("cluster: memo entry invalidated during the job")

// runJobOnce is one generation and execution of runJob's job, replaying
// memo entries if replay is set.
func (c *Cluster) runJobOnce(ctx context.Context, bp boundPlan, stats *QueryStats, src string, st sessionState, qr *queryRun, replay bool) (*Result, error) {
	memBudget := st.Opts.MemoryBudgetBytes
	counters := &QueryCounters{}
	var net hyracks.Transport
	if c.remote != nil {
		net = c.remote.net
	}
	jobgen := qr.tr.StartSpan(trace.RootSpan, "jobgen", trace.CatPhase)
	lj, err := c.newLocalJob(bp, counters, qr.id, memBudget, net, replay)
	stats.JobGenNs = jobgen.End().Nanoseconds()
	if err != nil {
		return nil, fmt.Errorf("%w\nplan:\n%s", err, stats.LogicalPlan())
	}

	// A job that replays a memo entry buffers its rows even when the
	// query streams: it may have to run again, and executeRequest
	// delivers buffered rows through the stream.
	stream := qr.stream != nil && len(lj.gen.memoHits) == 0
	if stream {
		// Streaming delivery: the collector hands each result tuple to the
		// handler as it arrives instead of buffering it. The handler runs
		// on the result sink's goroutine, so a slow consumer backpressures
		// the job through the bounded frame channels; a handler error
		// (client gone) aborts the job.
		onRow := qr.stream.OnRow
		lj.collector.Sink = func(t hyracks.Tuple) error { return onRow(t[0]) }
	}
	if acct := lj.topo.Mem; acct != nil {
		stats.MemBudget = acct.Budget()
		qr.mem.Store(acct)
	}
	var remoteCh <-chan remoteJobResult
	if c.remote != nil {
		rctx, cancelLocal := context.WithCancel(ctx)
		defer cancelLocal()
		ctx = rctx
		remoteCh = c.remote.startJob(ctx, cancelLocal, jobReq{
			JobID: qr.id,
			Src:   src,
			State: st,
			Epoch: c.Catalog.Epoch(),
		})
	}
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
	stats.ScanPassed = counters.ScanPassed.Load()

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
