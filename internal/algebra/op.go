package algebra

import (
	"fmt"
	"strings"

	"simdb/internal/adm"
	"simdb/internal/sim"
)

// OpKind enumerates logical (and a few physical) operators.
type OpKind int

// Logical operator kinds. OpSecondarySearch and OpPrimaryLookup are the
// physical index operators the rewrite rules introduce (paper Figures 7
// and 10); they live in the same tree for simplicity.
const (
	OpEmpty           OpKind = iota // one empty tuple (Algebricks' EmptyTupleSource)
	OpScan                          // dataset scan; defines PKVar and RecVar
	OpSelect                        // Cond
	OpAssign                        // AssignVars := AssignExprs
	OpProject                       // keep only Vars
	OpUnnest                        // iterate a collection; defines UnnestVar (+PosVar)
	OpJoin                          // Cond over both inputs (constant true = cross)
	OpGroupBy                       // Keys + Aggs
	OpOrder                         // Orders
	OpLimit                         // Count
	OpRank                          // defines PosVar: 1-based global position
	OpUnion                         // bag union; InVars align inputs, OutVars fresh
	OpAggregate                     // scalar aggregation to one tuple
	OpWrite                         // root: emit Var to the coordinator
	OpSecondarySearch               // inverted-index T-occurrence search
	OpPrimaryLookup                 // primary-index point lookup
	OpMemo                          // MemoKey names the input's output, a function of one dataset's data
)

// String names the kind like the paper's plan figures.
func (k OpKind) String() string {
	switch k {
	case OpEmpty:
		return "empty-tuple-source"
	case OpScan:
		return "data-scan"
	case OpSelect:
		return "select"
	case OpAssign:
		return "assign"
	case OpProject:
		return "project"
	case OpUnnest:
		return "unnest"
	case OpJoin:
		return "join"
	case OpGroupBy:
		return "group-by"
	case OpOrder:
		return "order"
	case OpLimit:
		return "limit"
	case OpRank:
		return "rank"
	case OpUnion:
		return "union"
	case OpAggregate:
		return "aggregate"
	case OpWrite:
		return "distribute-result"
	case OpSecondarySearch:
		return "secondary-index-search"
	case OpPrimaryLookup:
		return "primary-index-lookup"
	case OpMemo:
		return "memo"
	}
	return fmt.Sprintf("op(%d)", int(k))
}

// AggKind enumerates aggregate functions in GroupBy/Aggregate ops.
type AggKind int

// Aggregate kinds; AggListify is AQL's "with $v" list collection.
const (
	AggCount AggKind = iota
	AggSum
	AggMin
	AggMax
	AggAvg
	AggListify
	AggFirst
)

// KeyDef is one group-by key: V := E.
type KeyDef struct {
	V Var
	E Expr
}

// AggDef is one aggregate output: V := kind(E).
type AggDef struct {
	V    Var
	Kind AggKind
	E    Expr
}

// OrderSpec is one order-by item.
type OrderSpec struct {
	E    Expr
	Desc bool
}

// JoinPhys selects the physical join algorithm.
type JoinPhys int

// Physical join choices made by the optimizer.
const (
	JoinPhysUnset         JoinPhys = iota
	JoinPhysHash                   // equi-join, hash repartitioned
	JoinPhysBroadcastHash          // equi-join, build side broadcast
	JoinPhysNestedLoop             // arbitrary predicate, build side broadcast
)

// Op is a logical plan operator. Plans are DAGs: an Op may appear as
// the input of several parents (the materialize/reuse rewrite of the
// paper's Figure 20 relies on this); job generation inserts a runtime
// Replicate for shared nodes.
type Op struct {
	Kind   OpKind
	Inputs []*Op

	// OpScan / OpPrimaryLookup
	Dataverse string
	Dataset   string
	PKVar     Var
	RecVar    Var

	// ProjectFields, on OpScan and OpPrimaryLookup, is the
	// projection-pushdown result: the set of top-level record fields
	// the rest of the plan reads from RecVar. Nil means unknown or
	// opaque (fetch whole records); a non-nil slice — possibly empty —
	// lets the scan or lookup decode only those fields and, on columnar
	// components, skip unreferenced column blocks.
	ProjectFields []string
	// Filter, on OpScan and OpPrimaryLookup, is a similarity conjunct of
	// the select directly above the source, which the source checks on
	// each stored record before decoding it (see RecordFilter). Nil
	// means every record read is decoded and emitted.
	Filter *RecordFilter
	// Range, on OpScan, is the interval of primary keys the select
	// directly above the scan lets through, so storage reads only that
	// key range. Nil means the whole dataset.
	Range *KeyRange

	// OpSelect / OpJoin
	Cond Expr
	// FusedAssignVars/FusedAssignExprs, on OpSelect, hold an Assign the
	// specialization pass folded into the select: the evaluator computes
	// these bindings and the condition in one pass over each tuple. The
	// fused vars append to the select's output schema exactly where the
	// standalone assign would have put them.
	FusedAssignVars  []Var
	FusedAssignExprs []Expr

	// OpJoin physical choice
	Phys      JoinPhys
	BuildSide int // input index to build/broadcast
	// Equi-join keys extracted by the optimizer (parallel slices; the
	// normalization pass reduces them to variable references).
	JoinLeftKeys  []Expr
	JoinRightKeys []Expr

	// OpAssign
	AssignVars  []Var
	AssignExprs []Expr

	// OpProject; OpMemo's output, in the order its entries store it
	Vars []Var

	// OpMemo: the semantic key of the input's output, such as
	// order(Default.R, word-tokens(field-access($1, "summary"))). The
	// output depends on nothing but the stored records of
	// Dataverse.Dataset, so job generation may replay a copy captured
	// from an earlier run over the same data instead of running the
	// input.
	MemoKey string

	// OpUnnest / OpRank
	UnnestVar Var
	PosVar    Var
	Expr      Expr // also OpWrite's result expr input via Var below

	// OpGroupBy / OpAggregate
	Keys     []KeyDef
	Aggs     []AggDef
	HashHint bool // "/*+ hash */" on group-by

	// OpOrder
	Orders []OrderSpec

	// OpLimit
	Count int64

	// OpUnion
	InVars  [][]Var
	OutVars []Var

	// OpWrite
	Var Var

	// OpSecondarySearch
	IndexName string
	KeyExpr   Expr // expression producing the token list to probe
	TExpr     Expr // expression producing the occurrence threshold T
	// Bound is the similarity predicate the search serves, from which it
	// bounds each candidate's token count; the zero value, a plain
	// T-occurrence probe, bounds nothing.
	Bound  SearchBound
	OutVar Var // candidate primary keys (one per output tuple)

	// OpPrimaryLookup input key
	PKExpr Expr
	// RawPK marks PKExpr as yielding an already-encoded storage key (a
	// candidate produced by OpSecondarySearch) rather than a key value.
	RawPK bool
}

// SearchBound names the similarity predicate a secondary search serves:
// Measure "jaccard" with Threshold delta, or "edit-distance" with
// Threshold k over the index's GramLen-grams. An empty Measure is a
// plain T-occurrence probe (contains(), a btree equality).
type SearchBound struct {
	Measure   string
	Threshold float64
	GramLen   int
}

// Bounds returns the search bounds for a query of q counted tokens:
// the measure's (sim.MeasureBounds), or the plain threshold t of a probe
// that serves none.
func (b SearchBound) Bounds(q, t int) sim.Bounds {
	if bounds, ok := sim.MeasureBounds(b.Measure, q, b.Threshold, b.GramLen); ok {
		return bounds
	}
	return sim.CountBounds(t)
}

// String renders the predicate as explain prints it: the measure and
// its threshold, nothing for a plain probe.
func (b SearchBound) String() string {
	if b.Measure == "" {
		return ""
	}
	return fmt.Sprintf("%s(%g)", b.Measure, b.Threshold)
}

// KeyRange is an interval of primary keys: Lo and Hi are its ends, nil
// for an unbounded one, and LoIncl and HiIncl say whether each end
// belongs to it. An end is the constant of the conjunct it came from,
// slot and all, so binding a cached plan to a request's literals moves
// the range with them. It is sound, not authoritative: the select it was
// taken from stays above the scan, so the scan may read more keys than
// the interval holds, never fewer.
type KeyRange struct {
	Lo, Hi         *Const
	LoIncl, HiIncl bool
}

// Equal reports whether two ranges (nil for none) are the same interval:
// ends of one kind that compare equal, with the same inclusivity. Two
// ends of one slot are one literal and equal without a look at their
// values; any other two are compared through val, the caller's way of
// reading a constant's value.
func (r *KeyRange) Equal(s *KeyRange, val func(Const) adm.Value) bool {
	if r == nil || s == nil {
		return r == s
	}
	end := func(a, b *Const) bool {
		switch {
		case a == nil || b == nil:
			return a == b
		case a.Val.Kind() != b.Val.Kind():
			return false
		case a.Slot != 0 && a.Slot == b.Slot:
			return true
		}
		return adm.Compare(val(*a), val(*b)) == 0
	}
	return end(r.Lo, s.Lo) && end(r.Hi, s.Hi) && r.LoIncl == s.LoIncl && r.HiIncl == s.HiIncl
}

// String renders the interval as explain prints it, e.g. [521, 531) or
// (-inf, "m"].
func (r *KeyRange) String() string {
	lo, open := "-inf", "("
	if r.Lo != nil {
		lo = r.Lo.Val.String()
		if r.LoIncl {
			open = "["
		}
	}
	hi, shut := "+inf", ")"
	if r.Hi != nil {
		hi = r.Hi.Val.String()
		if r.HiIncl {
			shut = "]"
		}
	}
	return open + lo + ", " + hi + shut
}

// NewOp builds an operator with inputs.
func NewOp(kind OpKind, inputs ...*Op) *Op {
	return &Op{Kind: kind, Inputs: inputs}
}

// DefinedVars returns the variables this operator introduces.
func (o *Op) DefinedVars() []Var {
	switch o.Kind {
	case OpScan:
		return []Var{o.PKVar, o.RecVar}
	case OpSelect:
		return append([]Var(nil), o.FusedAssignVars...)
	case OpAssign:
		return append([]Var(nil), o.AssignVars...)
	case OpUnnest:
		if o.PosVar != 0 {
			return []Var{o.UnnestVar, o.PosVar}
		}
		return []Var{o.UnnestVar}
	case OpRank:
		return []Var{o.PosVar}
	case OpGroupBy:
		out := make([]Var, 0, len(o.Keys)+len(o.Aggs))
		for _, k := range o.Keys {
			out = append(out, k.V)
		}
		for _, a := range o.Aggs {
			out = append(out, a.V)
		}
		return out
	case OpAggregate:
		out := make([]Var, 0, len(o.Aggs))
		for _, a := range o.Aggs {
			out = append(out, a.V)
		}
		return out
	case OpUnion:
		return append([]Var(nil), o.OutVars...)
	case OpSecondarySearch:
		return []Var{o.OutVar}
	case OpPrimaryLookup:
		return []Var{o.PKVar, o.RecVar}
	}
	return nil
}

// UsedExprs returns every expression the operator evaluates.
func (o *Op) UsedExprs() []Expr {
	slots := o.ExprSlots()
	out := make([]Expr, len(slots))
	for i, p := range slots {
		out[i] = *p
	}
	return out
}

// ExprSlots returns the fields that hold the expressions the operator
// evaluates, one pointer per non-nil expression, so a rewrite can
// replace them in place.
func (o *Op) ExprSlots() []*Expr {
	var out []*Expr
	add := func(p *Expr) {
		if *p != nil {
			out = append(out, p)
		}
	}
	add(&o.Cond)
	for _, es := range [][]Expr{o.AssignExprs, o.FusedAssignExprs, o.JoinLeftKeys, o.JoinRightKeys} {
		for i := range es {
			add(&es[i])
		}
	}
	add(&o.Expr)
	for i := range o.Keys {
		add(&o.Keys[i].E)
	}
	for i := range o.Aggs {
		add(&o.Aggs[i].E)
	}
	for i := range o.Orders {
		add(&o.Orders[i].E)
	}
	add(&o.KeyExpr)
	add(&o.TExpr)
	add(&o.PKExpr)
	return out
}

// MapExprs replaces every expression the operator evaluates with fn of
// it.
func (o *Op) MapExprs(fn func(Expr) Expr) {
	for _, p := range o.ExprSlots() {
		*p = fn(*p)
	}
}

// ListedVars returns the variables the operator names outside its
// expressions: what a project, a memo, a union or the result keeps.
func (o *Op) ListedVars() []Var {
	switch o.Kind {
	case OpProject, OpMemo:
		return o.Vars
	case OpUnion:
		var out []Var
		for _, vs := range o.InVars {
			out = append(out, vs...)
		}
		return out
	case OpWrite:
		return []Var{o.Var}
	}
	return nil
}

// Schema returns the variables visible in this operator's output, in a
// deterministic order.
func (o *Op) Schema() []Var {
	switch o.Kind {
	case OpEmpty:
		return nil
	case OpScan:
		return []Var{o.PKVar, o.RecVar}
	case OpProject, OpMemo:
		return append([]Var(nil), o.Vars...)
	case OpGroupBy, OpAggregate:
		return o.DefinedVars()
	case OpUnion:
		return append([]Var(nil), o.OutVars...)
	case OpJoin:
		out := append([]Var(nil), o.Inputs[0].Schema()...)
		return append(out, o.Inputs[1].Schema()...)
	case OpWrite:
		return []Var{o.Var}
	default:
		var out []Var
		if len(o.Inputs) > 0 {
			out = append(out, o.Inputs[0].Schema()...)
		}
		return append(out, o.DefinedVars()...)
	}
}

// Walk visits the DAG once per node, inputs before parents.
func Walk(root *Op, fn func(*Op)) {
	seen := map[*Op]bool{}
	var rec func(*Op)
	rec = func(o *Op) {
		if o == nil || seen[o] {
			return
		}
		seen[o] = true
		for _, in := range o.Inputs {
			rec(in)
		}
		fn(o)
	}
	rec(root)
}

// CountOps returns the number of distinct operators in the plan — the
// quantity of the paper's Figure 15.
func CountOps(root *Op) int {
	n := 0
	Walk(root, func(*Op) { n++ })
	return n
}

// CountKind returns the number of distinct operators of one kind.
func CountKind(root *Op, k OpKind) int {
	n := 0
	Walk(root, func(o *Op) {
		if o.Kind == k {
			n++
		}
	})
	return n
}

// Copy deep-copies the plan reachable from root, allocating fresh
// variables for every defined variable and remapping references. Shared
// nodes stay shared in the copy. It returns the copy and the variable
// mapping — the machinery AQL+ meta clauses rely on to instantiate a
// branch several times.
func Copy(root *Op, alloc *VarAlloc) (*Op, map[Var]Var) { return copyPlan(root, alloc, nil) }

// BindCopy deep-copies the plan like Copy, keeping its variables, and
// binds the copy to a request of its shape: every tagged constant
// (Const.Slot > 0), in an expression or a key range, takes its slot's
// value in vals (vals[Slot-1]); nil vals binds nothing. TaggedSlots
// reaches exactly the constants it binds. Bound to a request's values,
// the copy of a plan cached as compiled prints like a fresh compile of
// the request.
func BindCopy(root *Op, vals []adm.Value) *Op {
	c, _ := copyPlan(root, nil, vals)
	return c
}

// TaggedSlots returns the slots of the tagged constants of the plan.
func TaggedSlots(root *Op) SlotSet {
	var s SlotSet
	add := func(c Const) {
		if c.Slot != 0 {
			s.Add(c.Slot)
		}
	}
	Walk(root, func(o *Op) {
		for _, p := range o.ExprSlots() {
			WalkConsts(*p, add)
		}
		if r := o.Range; r != nil {
			for _, end := range [2]*Const{r.Lo, r.Hi} {
				if end != nil {
					add(*end)
				}
			}
		}
	})
	return s
}

// copyPlan is Copy with fresh variables from alloc, or the same ones if
// alloc is nil, binding tagged constants to vals if it is non-nil.
func copyPlan(root *Op, alloc *VarAlloc, vals []adm.Value) (*Op, map[Var]Var) {
	var varMap map[Var]Var
	// First pass: allocate new vars for every defined var in the DAG.
	if alloc != nil {
		varMap = map[Var]Var{}
		Walk(root, func(o *Op) {
			for _, v := range o.DefinedVars() {
				if _, ok := varMap[v]; !ok {
					varMap[v] = alloc.New()
				}
			}
		})
	}
	nodeMap := map[*Op]*Op{}
	var rec func(*Op) *Op
	rec = func(o *Op) *Op {
		if o == nil {
			return nil
		}
		if c, ok := nodeMap[o]; ok {
			return c
		}
		c := &Op{}
		*c = *o
		if o.ProjectFields != nil {
			// Preserve non-nilness: an empty non-nil slice means "no
			// record fields needed", which nil does not.
			c.ProjectFields = append(make([]string, 0, len(o.ProjectFields)), o.ProjectFields...)
		}
		if o.Range != nil {
			r := *o.Range
			r.Lo, r.Hi = bindEnd(r.Lo, vals), bindEnd(r.Hi, vals)
			c.Range = &r
		}
		c.Inputs = make([]*Op, len(o.Inputs))
		for i, in := range o.Inputs {
			c.Inputs[i] = rec(in)
		}
		remap := func(v Var) Var {
			if nv, ok := varMap[v]; ok {
				return nv
			}
			return v
		}
		c.PKVar = remap(o.PKVar)
		c.RecVar = remap(o.RecVar)
		c.UnnestVar = remap(o.UnnestVar)
		c.PosVar = remap(o.PosVar)
		c.OutVar = remap(o.OutVar)
		c.Var = remap(o.Var)
		if o.Cond != nil {
			c.Cond = substBind(o.Cond, varMap, vals)
		}
		if o.Expr != nil {
			c.Expr = substBind(o.Expr, varMap, vals)
		}
		if o.KeyExpr != nil {
			c.KeyExpr = substBind(o.KeyExpr, varMap, vals)
		}
		if o.TExpr != nil {
			c.TExpr = substBind(o.TExpr, varMap, vals)
		}
		if o.PKExpr != nil {
			c.PKExpr = substBind(o.PKExpr, varMap, vals)
		}
		c.AssignVars = remapVars(o.AssignVars, varMap)
		c.AssignExprs = substAll(o.AssignExprs, varMap, vals)
		c.FusedAssignVars = remapVars(o.FusedAssignVars, varMap)
		c.FusedAssignExprs = substAll(o.FusedAssignExprs, varMap, vals)
		c.JoinLeftKeys = substAll(o.JoinLeftKeys, varMap, vals)
		c.JoinRightKeys = substAll(o.JoinRightKeys, varMap, vals)
		c.Vars = remapVars(o.Vars, varMap)
		c.OutVars = remapVars(o.OutVars, varMap)
		if o.InVars != nil {
			c.InVars = make([][]Var, len(o.InVars))
			for i, vs := range o.InVars {
				c.InVars[i] = remapVars(vs, varMap)
			}
		}
		if o.Keys != nil {
			c.Keys = make([]KeyDef, len(o.Keys))
			for i, k := range o.Keys {
				c.Keys[i] = KeyDef{V: remap(k.V), E: substBind(k.E, varMap, vals)}
			}
		}
		if o.Aggs != nil {
			c.Aggs = make([]AggDef, len(o.Aggs))
			for i, a := range o.Aggs {
				c.Aggs[i] = AggDef{V: remap(a.V), Kind: a.Kind, E: substBind(a.E, varMap, vals)}
			}
		}
		if o.Orders != nil {
			c.Orders = make([]OrderSpec, len(o.Orders))
			for i, os := range o.Orders {
				c.Orders[i] = OrderSpec{E: substBind(os.E, varMap, vals), Desc: os.Desc}
			}
		}
		nodeMap[o] = c
		return c
	}
	return rec(root), varMap
}

// bindEnd binds a key range's end to vals.
func bindEnd(c *Const, vals []adm.Value) *Const {
	if c == nil || !bindable(*c, vals) {
		return c
	}
	return &Const{Val: vals[c.Slot-1], Slot: c.Slot}
}

func remapVars(vs []Var, m map[Var]Var) []Var {
	if vs == nil {
		return nil
	}
	out := make([]Var, len(vs))
	for i, v := range vs {
		if nv, ok := m[v]; ok {
			out[i] = nv
		} else {
			out[i] = v
		}
	}
	return out
}

func substAll(es []Expr, m map[Var]Var, vals []adm.Value) []Expr {
	if es == nil {
		return nil
	}
	out := make([]Expr, len(es))
	for i, e := range es {
		out[i] = substBind(e, m, vals)
	}
	return out
}

// Print renders the plan as an indented tree; shared nodes print once
// and later occurrences reference their first line.
func Print(root *Op) string {
	var b strings.Builder
	ids := map[*Op]int{}
	next := 0
	var rec func(o *Op, depth int)
	rec = func(o *Op, depth int) {
		indent := strings.Repeat("  ", depth)
		if id, ok := ids[o]; ok {
			fmt.Fprintf(&b, "%s^shared(#%d %s)\n", indent, id, o.Kind)
			return
		}
		ids[o] = next
		next++
		fmt.Fprintf(&b, "%s#%d %s%s\n", indent, ids[o], o.Kind, opDetail(o))
		for _, in := range o.Inputs {
			rec(in, depth+1)
		}
	}
	rec(root, 0)
	return b.String()
}

func opDetail(o *Op) string {
	switch o.Kind {
	case OpScan:
		return fmt.Sprintf(" %s.%s -> pk:%v rec:%v", o.Dataverse, o.Dataset, o.PKVar, o.RecVar) + sourceDetail(o)
	case OpSelect, OpJoin:
		d := fmt.Sprintf(" (%s)", o.Cond)
		if o.Kind == OpJoin && o.Phys != JoinPhysUnset {
			d += fmt.Sprintf(" [phys=%d build=%d", o.Phys, o.BuildSide)
			for i := range o.JoinLeftKeys {
				d += fmt.Sprintf(" %s=%s", o.JoinLeftKeys[i], o.JoinRightKeys[i])
			}
			d += "]"
		}
		if o.Kind == OpSelect && len(o.FusedAssignVars) > 0 {
			parts := make([]string, len(o.FusedAssignVars))
			for i := range o.FusedAssignVars {
				parts[i] = fmt.Sprintf("%v := %s", o.FusedAssignVars[i], o.FusedAssignExprs[i])
			}
			d += fmt.Sprintf(" [fused-assign %s]", strings.Join(parts, ", "))
		}
		return d
	case OpAssign:
		parts := make([]string, len(o.AssignVars))
		for i := range o.AssignVars {
			parts[i] = fmt.Sprintf("%v := %s", o.AssignVars[i], o.AssignExprs[i])
		}
		return " " + strings.Join(parts, ", ")
	case OpProject:
		return fmt.Sprintf(" %v", o.Vars)
	case OpMemo:
		return fmt.Sprintf(" %s -> %v", o.MemoKey, o.Vars)
	case OpUnnest:
		if o.PosVar != 0 {
			return fmt.Sprintf(" %v at %v in %s", o.UnnestVar, o.PosVar, o.Expr)
		}
		return fmt.Sprintf(" %v in %s", o.UnnestVar, o.Expr)
	case OpGroupBy:
		var ks, as []string
		for _, k := range o.Keys {
			ks = append(ks, fmt.Sprintf("%v := %s", k.V, k.E))
		}
		for _, a := range o.Aggs {
			as = append(as, fmt.Sprintf("%v := agg%d(%s)", a.V, a.Kind, a.E))
		}
		h := ""
		if o.HashHint {
			h = " /*+ hash */"
		}
		return fmt.Sprintf("%s keys[%s] aggs[%s]", h, strings.Join(ks, ", "), strings.Join(as, ", "))
	case OpOrder:
		var ss []string
		for _, s := range o.Orders {
			dir := "asc"
			if s.Desc {
				dir = "desc"
			}
			ss = append(ss, fmt.Sprintf("%s %s", s.E, dir))
		}
		return " " + strings.Join(ss, ", ")
	case OpLimit:
		return fmt.Sprintf(" %d", o.Count)
	case OpRank:
		return fmt.Sprintf(" -> %v", o.PosVar)
	case OpAggregate:
		var as []string
		for _, a := range o.Aggs {
			as = append(as, fmt.Sprintf("%v := agg%d(%s)", a.V, a.Kind, a.E))
		}
		return " " + strings.Join(as, ", ")
	case OpWrite:
		return fmt.Sprintf(" %v", o.Var)
	case OpSecondarySearch:
		bound := ""
		if b := o.Bound.String(); b != "" {
			bound = " bound=" + b
		}
		return fmt.Sprintf(" %s.%s.%s keys=%s T=%s%s -> %v", o.Dataverse, o.Dataset, o.IndexName, o.KeyExpr, o.TExpr, bound, o.OutVar)
	case OpPrimaryLookup:
		return fmt.Sprintf(" %s.%s pk=%s -> %v,%v", o.Dataverse, o.Dataset, o.PKExpr, o.PKVar, o.RecVar) + sourceDetail(o)
	}
	return ""
}

// sourceDetail renders a record source's projection, key range and
// filter annotations.
func sourceDetail(o *Op) string {
	d := ""
	if o.ProjectFields != nil {
		d = fmt.Sprintf(" project:[%s]", strings.Join(o.ProjectFields, ", "))
	}
	if o.Range != nil {
		d += " range:" + o.Range.String()
	}
	if o.Filter != nil {
		d += fmt.Sprintf(" filter:[%s]", o.Filter)
	}
	return d
}
