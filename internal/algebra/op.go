package algebra

import (
	"fmt"
	"strings"
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
	OpMaterialize                   // pipeline breaker
	OpAggregate                     // scalar aggregation to one tuple
	OpWrite                         // root: emit Var to the coordinator
	OpSecondarySearch               // inverted-index T-occurrence search
	OpPrimaryLookup                 // primary-index point lookup
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
	case OpMaterialize:
		return "materialize"
	case OpAggregate:
		return "aggregate"
	case OpWrite:
		return "distribute-result"
	case OpSecondarySearch:
		return "secondary-index-search"
	case OpPrimaryLookup:
		return "primary-index-lookup"
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

	// OpProject
	Vars []Var

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
	OutVar    Var  // candidate primary keys (one per output tuple)

	// OpPrimaryLookup input key
	PKExpr Expr
	// RawPK marks PKExpr as yielding an already-encoded storage key (a
	// candidate produced by OpSecondarySearch) rather than a key value.
	RawPK bool
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
	var out []Expr
	add := func(e Expr) {
		if e != nil {
			out = append(out, e)
		}
	}
	add(o.Cond)
	for _, e := range o.AssignExprs {
		add(e)
	}
	for _, e := range o.FusedAssignExprs {
		add(e)
	}
	for _, e := range o.JoinLeftKeys {
		add(e)
	}
	for _, e := range o.JoinRightKeys {
		add(e)
	}
	add(o.Expr)
	for _, k := range o.Keys {
		add(k.E)
	}
	for _, a := range o.Aggs {
		add(a.E)
	}
	for _, os := range o.Orders {
		add(os.E)
	}
	add(o.KeyExpr)
	add(o.TExpr)
	add(o.PKExpr)
	return out
}

// UsedVarsOf returns the variables the operator's expressions and
// structural fields reference (not counting its inputs' own usage).
func (o *Op) UsedVarsOf() []Var {
	var out []Var
	for _, e := range o.UsedExprs() {
		out = UsedVars(e, out)
	}
	if o.Kind == OpProject {
		out = append(out, o.Vars...)
	}
	if o.Kind == OpUnion {
		for _, vs := range o.InVars {
			out = append(out, vs...)
		}
	}
	if o.Kind == OpWrite {
		out = append(out, o.Var)
	}
	return out
}

// Schema returns the variables visible in this operator's output, in a
// deterministic order.
func (o *Op) Schema() []Var {
	switch o.Kind {
	case OpEmpty:
		return nil
	case OpScan:
		return []Var{o.PKVar, o.RecVar}
	case OpProject:
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
func Copy(root *Op, alloc *VarAlloc) (*Op, map[Var]Var) {
	varMap := map[Var]Var{}
	// First pass: allocate new vars for every defined var in the DAG.
	Walk(root, func(o *Op) {
		for _, v := range o.DefinedVars() {
			if _, ok := varMap[v]; !ok {
				varMap[v] = alloc.New()
			}
		}
	})
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
			c.Cond = SubstVars(o.Cond, varMap)
		}
		if o.Expr != nil {
			c.Expr = SubstVars(o.Expr, varMap)
		}
		if o.KeyExpr != nil {
			c.KeyExpr = SubstVars(o.KeyExpr, varMap)
		}
		if o.TExpr != nil {
			c.TExpr = SubstVars(o.TExpr, varMap)
		}
		if o.PKExpr != nil {
			c.PKExpr = SubstVars(o.PKExpr, varMap)
		}
		c.AssignVars = remapVars(o.AssignVars, varMap)
		c.AssignExprs = substAll(o.AssignExprs, varMap)
		c.FusedAssignVars = remapVars(o.FusedAssignVars, varMap)
		c.FusedAssignExprs = substAll(o.FusedAssignExprs, varMap)
		c.JoinLeftKeys = substAll(o.JoinLeftKeys, varMap)
		c.JoinRightKeys = substAll(o.JoinRightKeys, varMap)
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
				c.Keys[i] = KeyDef{V: remap(k.V), E: SubstVars(k.E, varMap)}
			}
		}
		if o.Aggs != nil {
			c.Aggs = make([]AggDef, len(o.Aggs))
			for i, a := range o.Aggs {
				c.Aggs[i] = AggDef{V: remap(a.V), Kind: a.Kind, E: SubstVars(a.E, varMap)}
			}
		}
		if o.Orders != nil {
			c.Orders = make([]OrderSpec, len(o.Orders))
			for i, os := range o.Orders {
				c.Orders[i] = OrderSpec{E: SubstVars(os.E, varMap), Desc: os.Desc}
			}
		}
		nodeMap[o] = c
		return c
	}
	return rec(root), varMap
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

func substAll(es []Expr, m map[Var]Var) []Expr {
	if es == nil {
		return nil
	}
	out := make([]Expr, len(es))
	for i, e := range es {
		out[i] = SubstVars(e, m)
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
			d += fmt.Sprintf(" [phys=%d build=%d]", o.Phys, o.BuildSide)
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
		return fmt.Sprintf(" %s.%s.%s keys=%s T=%s -> %v", o.Dataverse, o.Dataset, o.IndexName, o.KeyExpr, o.TExpr, o.OutVar)
	case OpPrimaryLookup:
		return fmt.Sprintf(" %s.%s pk=%s -> %v,%v", o.Dataverse, o.Dataset, o.PKExpr, o.PKVar, o.RecVar) + sourceDetail(o)
	}
	return ""
}

// sourceDetail renders a record source's projection and filter
// annotations.
func sourceDetail(o *Op) string {
	d := ""
	if o.ProjectFields != nil {
		d = fmt.Sprintf(" project:[%s]", strings.Join(o.ProjectFields, ", "))
	}
	if o.Filter != nil {
		d += fmt.Sprintf(" filter:[%s]", o.Filter)
	}
	return d
}
