package algebra

import (
	"fmt"
	"sort"

	"simdb/internal/adm"
)

// Env resolves variables during expression evaluation: plan variables
// through a column map over the current tuple, comprehension names
// through a lexically scoped binding list.
type Env struct {
	Cols  map[Var]int
	Row   []adm.Value
	names []binding
}

type binding struct {
	name string
	val  adm.Value
}

// NewEnv builds an evaluation environment over a tuple.
func NewEnv(cols map[Var]int, row []adm.Value) *Env {
	return &Env{Cols: cols, Row: row}
}

// Reset rebinds the environment to a new tuple and drops any leftover
// comprehension bindings, so one Env can be reused across tuples
// instead of allocating per call. An Env is single-goroutine.
func (e *Env) Reset(row []adm.Value) {
	e.Row = row
	e.names = e.names[:0]
}

// bindName pushes a comprehension binding; the caller must pop it with
// unbind.
func (e *Env) bindName(name string, v adm.Value) {
	e.names = append(e.names, binding{name, v})
}

func (e *Env) unbind(n int) { e.names = e.names[:len(e.names)-n] }

func (e *Env) lookupName(name string) (adm.Value, bool) {
	for i := len(e.names) - 1; i >= 0; i-- {
		if e.names[i].name == name {
			return e.names[i].val, true
		}
	}
	return adm.Null, false
}

// Eval evaluates the expression in the environment.
func Eval(e Expr, env *Env) (adm.Value, error) {
	switch x := e.(type) {
	case Const:
		return x.Val, nil
	case VarRef:
		col, ok := env.Cols[x.V]
		if !ok {
			return adm.Null, fmt.Errorf("algebra: unbound variable %v", x.V)
		}
		if col >= len(env.Row) {
			return adm.Null, fmt.Errorf("algebra: variable %v column %d out of row", x.V, col)
		}
		return env.Row[col], nil
	case NameRef:
		v, ok := env.lookupName(x.Name)
		if !ok {
			return adm.Null, fmt.Errorf("algebra: unbound name %%%s", x.Name)
		}
		return v, nil
	case Call:
		return evalCall(x, env)
	case Comprehension:
		return evalComprehension(x, env)
	}
	return adm.Null, fmt.Errorf("algebra: unknown expression %T", e)
}

func evalCall(c Call, env *Env) (adm.Value, error) {
	// Short-circuit boolean connectives; everything else is strict.
	switch c.Fn {
	case "and":
		for _, a := range c.Args {
			v, err := Eval(a, env)
			if err != nil {
				return adm.Null, err
			}
			if !truthy(v) {
				return adm.NewBool(false), nil
			}
		}
		return adm.NewBool(true), nil
	case "or":
		for _, a := range c.Args {
			v, err := Eval(a, env)
			if err != nil {
				return adm.Null, err
			}
			if truthy(v) {
				return adm.NewBool(true), nil
			}
		}
		return adm.NewBool(false), nil
	}
	args := make([]adm.Value, len(c.Args))
	for i, a := range c.Args {
		v, err := Eval(a, env)
		if err != nil {
			return adm.Null, err
		}
		args[i] = v
	}
	fn, ok := builtins[c.Fn]
	if !ok {
		return adm.Null, fmt.Errorf("algebra: unknown function %q", c.Fn)
	}
	return fn(args)
}

// truthy treats only boolean true as true; null and non-booleans are
// false (condition semantics).
func truthy(v adm.Value) bool {
	return v.Kind() == adm.KindBool && v.Bool()
}

// Truthy reports condition truth for operators evaluating predicates.
func Truthy(v adm.Value) bool { return truthy(v) }

// evalComprehension runs an in-memory FLWOR: clauses expand/filter/sort
// an environment stream, then Ret maps it into a list.
func evalComprehension(c Comprehension, env *Env) (adm.Value, error) {
	// envRows holds one bound-name frame per pending result row.
	rows := [][]binding{nil}
	for _, cl := range c.Clauses {
		var next [][]binding
		switch cl.Kind {
		case "for":
			for _, frame := range rows {
				coll, err := evalWithFrame(cl.E, env, frame)
				if err != nil {
					return adm.Null, err
				}
				if coll.IsNull() {
					continue
				}
				k := coll.Kind()
				if k != adm.KindList && k != adm.KindBag {
					return adm.Null, fmt.Errorf("algebra: for over %v", k)
				}
				for i, elem := range coll.Elems() {
					nf := append(append([]binding(nil), frame...), binding{cl.V, elem})
					if cl.PosV != "" {
						nf = append(nf, binding{cl.PosV, adm.NewInt(int64(i + 1))})
					}
					next = append(next, nf)
				}
			}
		case "let":
			for _, frame := range rows {
				v, err := evalWithFrame(cl.E, env, frame)
				if err != nil {
					return adm.Null, err
				}
				next = append(next, append(append([]binding(nil), frame...), binding{cl.V, v}))
			}
		case "where":
			for _, frame := range rows {
				v, err := evalWithFrame(cl.E, env, frame)
				if err != nil {
					return adm.Null, err
				}
				if truthy(v) {
					next = append(next, frame)
				}
			}
		case "order":
			keys := make([]adm.Value, len(rows))
			for i, frame := range rows {
				v, err := evalWithFrame(cl.E, env, frame)
				if err != nil {
					return adm.Null, err
				}
				keys[i] = v
			}
			idx := make([]int, len(rows))
			for i := range idx {
				idx[i] = i
			}
			sort.SliceStable(idx, func(a, b int) bool {
				c := adm.Compare(keys[idx[a]], keys[idx[b]])
				if cl.Desc {
					return c > 0
				}
				return c < 0
			})
			next = make([][]binding, len(rows))
			for i, j := range idx {
				next[i] = rows[j]
			}
		default:
			return adm.Null, fmt.Errorf("algebra: unsupported comprehension clause %q", cl.Kind)
		}
		rows = next
	}
	out := make([]adm.Value, 0, len(rows))
	for _, frame := range rows {
		v, err := evalWithFrame(c.Ret, env, frame)
		if err != nil {
			return adm.Null, err
		}
		out = append(out, v)
	}
	return adm.NewList(out), nil
}

func evalWithFrame(e Expr, env *Env, frame []binding) (adm.Value, error) {
	env.names = append(env.names, frame...)
	v, err := Eval(e, env)
	env.unbind(len(frame))
	return v, err
}
