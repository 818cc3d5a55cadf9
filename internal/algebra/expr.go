// Package algebra is SimDB's logical algebra — the Algebricks layer of
// the paper's stack. Queries translate into trees of variable-producing
// operators over scalar expressions; the rule-based optimizer rewrites
// these trees (including the AQL+ re-translation of similarity joins)
// and a physical pass annotates them with hyracks operators and
// connectors.
package algebra

import (
	"fmt"
	"strings"

	"simdb/internal/adm"
)

// Var identifies a logical variable ($v in plans). Variables are
// allocated by a VarAlloc and unique within one plan.
type Var int

// String renders the variable like AQL plans do.
func (v Var) String() string { return fmt.Sprintf("$%d", int(v)) }

// VarAlloc hands out fresh variables.
type VarAlloc struct{ next Var }

// New returns a fresh variable.
func (a *VarAlloc) New() Var {
	a.next++
	return a.next
}

// Expr is a scalar expression tree evaluated per tuple.
type Expr interface {
	exprNode()
	String() string
}

// Const is a literal value. Slot is one more than the index of the
// request literal the constant was translated from (its parameter in
// the request's aqlp.Shape), 0 for a constant no literal stands for. A
// plan cached by shape serves the next request of that shape with every
// tagged constant read as the request's value (CompileBound and
// Const.Bound at job generation, BindCopy where the plan is printed), so
// a compile-time decision on a tagged constant's value must record its
// slot (the optimizer's Value method) to key the cache on it. Its kind
// is fixed by the shape and may be read freely.
type Const struct {
	Val  adm.Value
	Slot int
}

// Bound returns the constant's value bound to vals: its slot's value
// when vals reaches its slot, its own value otherwise.
func (c Const) Bound(vals []adm.Value) adm.Value {
	if !bindable(c, vals) {
		return c.Val
	}
	return vals[c.Slot-1]
}

// SlotSet is a set of Const slots.
type SlotSet []uint64

// Add puts slot in the set.
func (s *SlotSet) Add(slot int) {
	for len(*s) <= slot/64 {
		*s = append(*s, 0)
	}
	(*s)[slot/64] |= 1 << (slot % 64)
}

// Has reports whether slot is in the set.
func (s SlotSet) Has(slot int) bool {
	return slot/64 < len(s) && s[slot/64]&(1<<(slot%64)) != 0
}

// AddAll puts every slot of t in the set.
func (s *SlotSet) AddAll(t SlotSet) {
	for len(*s) < len(t) {
		*s = append(*s, 0)
	}
	for i, w := range t {
		(*s)[i] |= w
	}
}

// Contains reports whether every slot of t is in the set.
func (s SlotSet) Contains(t SlotSet) bool {
	for i, w := range t {
		if w != 0 && (i >= len(s) || s[i]&w != w) {
			return false
		}
	}
	return true
}

// WalkConsts calls fn on every constant in e.
func WalkConsts(e Expr, fn func(Const)) {
	switch x := e.(type) {
	case Const:
		fn(x)
	case Call:
		for _, a := range x.Args {
			WalkConsts(a, fn)
		}
	case Comprehension:
		for _, c := range x.Clauses {
			if c.E != nil {
				WalkConsts(c.E, fn)
			}
		}
		WalkConsts(x.Ret, fn)
	}
}

// VarRef references a logical variable.
type VarRef struct{ V Var }

// Call invokes a function from the registry; comparison, boolean and
// arithmetic operators are calls too ("eq", "and", "add", …), as are
// field access ("field-access") and constructors ("record", "list").
type Call struct {
	Fn   string
	Args []Expr
	// Hint carries a compiler hint attached to this expression (the
	// paper's /*+ bcast */ sits on one side of a join equality).
	Hint string
}

// CompClause is one clause of a Comprehension.
type CompClause struct {
	Kind string // "for", "let", "where", "order"
	V    string // bound name for for/let (comprehensions use names, not Vars)
	PosV string // positional name for "for ... at"
	E    Expr
	Desc bool // order direction
}

// Comprehension is an in-memory FLWOR over list values — the form a
// correlated subquery or an AQL UDF body takes when it does not scan a
// dataset. Free variables resolve through the enclosing Env; bound
// names shadow them.
type Comprehension struct {
	Clauses []CompClause
	Ret     Expr
}

// NameRef references a comprehension-bound name; it only appears inside
// Comprehension subtrees.
type NameRef struct{ Name string }

func (Const) exprNode()         {}
func (VarRef) exprNode()        {}
func (Call) exprNode()          {}
func (Comprehension) exprNode() {}
func (NameRef) exprNode()       {}

func (e Const) String() string   { return e.Val.String() }
func (e VarRef) String() string  { return e.V.String() }
func (e NameRef) String() string { return "%" + e.Name }

func (e Call) String() string {
	args := make([]string, len(e.Args))
	for i, a := range e.Args {
		args[i] = a.String()
	}
	h := ""
	if e.Hint != "" {
		h = "/*+ " + e.Hint + " */"
	}
	return h + e.Fn + "(" + strings.Join(args, ", ") + ")"
}

func (e Comprehension) String() string {
	var b strings.Builder
	b.WriteString("(")
	for _, c := range e.Clauses {
		switch c.Kind {
		case "for":
			fmt.Fprintf(&b, "for %%%s in %s ", c.V, c.E)
		case "let":
			fmt.Fprintf(&b, "let %%%s := %s ", c.V, c.E)
		case "where":
			fmt.Fprintf(&b, "where %s ", c.E)
		case "order":
			fmt.Fprintf(&b, "order by %s ", c.E)
		}
	}
	fmt.Fprintf(&b, "return %s)", e.Ret)
	return b.String()
}

// C wraps a value as a Const expression.
func C(v adm.Value) Expr { return Const{Val: v} }

// CInt is a Const int convenience.
func CInt(i int64) Expr { return Const{Val: adm.NewInt(i)} }

// CStr is a Const string convenience.
func CStr(s string) Expr { return Const{Val: adm.NewString(s)} }

// V wraps a variable reference.
func V(v Var) Expr { return VarRef{V: v} }

// F builds a Call.
func F(fn string, args ...Expr) Expr { return Call{Fn: fn, Args: args} }

// UsedVars appends the variables referenced by e to dst.
func UsedVars(e Expr, dst []Var) []Var {
	switch x := e.(type) {
	case VarRef:
		return append(dst, x.V)
	case Call:
		for _, a := range x.Args {
			dst = UsedVars(a, dst)
		}
	case Comprehension:
		for _, c := range x.Clauses {
			if c.E != nil {
				dst = UsedVars(c.E, dst)
			}
		}
		dst = UsedVars(x.Ret, dst)
	}
	return dst
}

// SubstVars rewrites variable references through the mapping, leaving
// unmapped variables untouched. Expressions are immutable: a new tree
// is returned.
func SubstVars(e Expr, m map[Var]Var) Expr { return substBind(e, m, nil) }

// substBind is SubstVars that also binds each tagged constant to its
// slot's value in vals, when vals is non-nil.
func substBind(e Expr, m map[Var]Var, vals []adm.Value) Expr {
	switch x := e.(type) {
	case VarRef:
		if nv, ok := m[x.V]; ok {
			return VarRef{V: nv}
		}
		return x
	case Const:
		if !bindable(x, vals) {
			return e // no new box for the interface
		}
		return Const{Val: vals[x.Slot-1], Slot: x.Slot}
	case Call:
		args := make([]Expr, len(x.Args))
		for i, a := range x.Args {
			args[i] = substBind(a, m, vals)
		}
		return Call{Fn: x.Fn, Args: args, Hint: x.Hint}
	case Comprehension:
		cls := make([]CompClause, len(x.Clauses))
		for i, c := range x.Clauses {
			nc := c
			if c.E != nil {
				nc.E = substBind(c.E, m, vals)
			}
			cls[i] = nc
		}
		return Comprehension{Clauses: cls, Ret: substBind(x.Ret, m, vals)}
	}
	return e
}

// bindable reports whether binding to vals gives c a value: it has a
// slot, and vals reaches it.
func bindable(c Const, vals []adm.Value) bool { return c.Slot != 0 && c.Slot <= len(vals) }

// ReplaceExpr rewrites e bottom-up through fn.
func ReplaceExpr(e Expr, fn func(Expr) Expr) Expr {
	switch x := e.(type) {
	case Call:
		args := make([]Expr, len(x.Args))
		for i, a := range x.Args {
			args[i] = ReplaceExpr(a, fn)
		}
		e = Call{Fn: x.Fn, Args: args, Hint: x.Hint}
	case Comprehension:
		cls := make([]CompClause, len(x.Clauses))
		for i, c := range x.Clauses {
			nc := c
			if c.E != nil {
				nc.E = ReplaceExpr(c.E, fn)
			}
			cls[i] = nc
		}
		e = Comprehension{Clauses: cls, Ret: ReplaceExpr(x.Ret, fn)}
	}
	return fn(e)
}

// Conjuncts splits a condition into AND-ed conjuncts.
func Conjuncts(e Expr) []Expr {
	if c, ok := e.(Call); ok && c.Fn == "and" {
		var out []Expr
		for _, a := range c.Args {
			out = append(out, Conjuncts(a)...)
		}
		return out
	}
	return []Expr{e}
}

// AndAll combines conjuncts back into a single condition; an empty
// slice becomes constant true.
func AndAll(es []Expr) Expr {
	switch len(es) {
	case 0:
		return C(adm.NewBool(true))
	case 1:
		return es[0]
	}
	return Call{Fn: "and", Args: es}
}
