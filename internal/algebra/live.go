package algebra

// LiveVars computes, for every operator of the plan, the variables some
// operator above it reads from its output: what a site that constructs
// the operator's output tuples has to keep. One pass from the root down
// (a parent is settled before its inputs; a shared node's set is the
// union over its parents). A set may name variables its operator does
// not produce — a join asks both inputs for everything it needs — so
// callers intersect it with the schema at hand.
func LiveVars(root *Op) map[*Op]map[Var]bool {
	var order []*Op
	Walk(root, func(o *Op) { order = append(order, o) })
	live := make(map[*Op]map[Var]bool, len(order))
	for i := len(order) - 1; i >= 0; i-- {
		op := order[i]
		for j, in := range op.Inputs {
			set := live[in]
			if set == nil {
				set = map[Var]bool{}
				live[in] = set
			}
			for _, v := range op.needs(j, live[op]) {
				set[v] = true
			}
		}
	}
	return live
}

// needs lists what the operator requires of input i when out is required
// of the operator itself: the variables its own expressions read and,
// unless the operator cuts pass-through (group-by, aggregate, union and
// write rebuild their output; a project hands on only what is asked of
// it), all of out — what the operator defines itself no input has.
func (o *Op) needs(i int, out map[Var]bool) []Var {
	switch o.Kind {
	case OpUnion:
		return o.InVars[i]
	case OpWrite:
		return []Var{o.Var}
	}
	var need []Var
	for _, e := range o.UsedExprs() {
		need = UsedVars(e, need)
	}
	if o.Kind != OpGroupBy && o.Kind != OpAggregate {
		for v := range out {
			need = append(need, v)
		}
	}
	return need
}
