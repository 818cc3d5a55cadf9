package aqlp

import (
	"context"
	"fmt"
	"log/slog"
	"strconv"

	"simdb/internal/adm"
	"simdb/internal/obs"
)

// Parse parses the text of an AQL/AQL+ request after its mode
// (Request.At): statements followed by an optional query body.
func Parse(src string) (*Query, error) {
	toks, err := lex(src)
	if err != nil {
		if obs.Log().Enabled(context.Background(), slog.LevelDebug) {
			obs.Log().Debug("aql lex failed", "err", err)
		}
		return nil, err
	}
	p := &parser{toks: toks}
	q := &Query{}
	for {
		if p.atEOF() {
			return q, nil
		}
		stmt, isStmt, err := p.tryStatement()
		if err != nil {
			if obs.Log().Enabled(context.Background(), slog.LevelDebug) {
				obs.Log().Debug("aql parse failed", "err", err)
			}
			return nil, err
		}
		if isStmt {
			q.Stmts = append(q.Stmts, stmt)
			p.accept(tokPunct, ";")
			continue
		}
		body, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		q.Body = body
		p.accept(tokPunct, ";")
		if !p.atEOF() {
			return nil, p.errf("trailing input after query body")
		}
		return q, nil
	}
}

type parser struct {
	toks []token
	pos  int
	// inStmt is set while a statement parses: a literal there (a UDF
	// body's) belongs to the statement, not to the request's query, so
	// its LitNode carries no slot.
	inStmt bool
}

// slot is the LitNode slot of literal token t.
func (p *parser) slot(t token) int {
	if p.inStmt {
		return 0
	}
	return t.slot
}

func (p *parser) cur() token  { return p.toks[p.pos] }
func (p *parser) atEOF() bool { return p.cur().kind == tokEOF }

func (p *parser) next() token {
	t := p.toks[p.pos]
	if t.kind != tokEOF {
		p.pos++
	}
	return t
}

func (p *parser) peekIs(kind tokKind, text string) bool {
	t := p.cur()
	return t.kind == kind && (text == "" || t.text == text)
}

// peekIdent reports whether the current token is the given keyword.
func (p *parser) peekIdent(kw string) bool { return p.peekIs(tokIdent, kw) }

func (p *parser) accept(kind tokKind, text string) bool {
	if p.peekIs(kind, text) {
		p.next()
		return true
	}
	return false
}

func (p *parser) expect(kind tokKind, text string) (token, error) {
	if p.peekIs(kind, text) {
		return p.next(), nil
	}
	return token{}, p.errf("expected %q, found %q", text, p.cur().text)
}

func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("aql: parse error near offset %d: %s", p.cur().pos, fmt.Sprintf(format, args...))
}

// tryStatement parses one leading statement if present.
func (p *parser) tryStatement() (Stmt, bool, error) {
	p.inStmt = true
	defer func() { p.inStmt = false }()
	switch {
	case p.peekIdent("use"):
		p.next()
		if _, err := p.expect(tokIdent, "dataverse"); err != nil {
			return nil, false, err
		}
		name, err := p.expectName()
		if err != nil {
			return nil, false, err
		}
		return UseStmt{Dataverse: name}, true, nil
	case p.peekIdent("set"):
		p.next()
		key, err := p.expectName()
		if err != nil {
			return nil, false, err
		}
		val, err := p.expect(tokString, "")
		if err != nil {
			return nil, false, p.errf("set needs a quoted value")
		}
		return SetStmt{Key: key, Val: val.text}, true, nil
	case p.peekIdent("create"):
		return p.parseCreate()
	case p.peekIdent("drop"):
		p.next()
		if _, err := p.expect(tokIdent, "dataset"); err != nil {
			return nil, false, err
		}
		name, err := p.expectName()
		if err != nil {
			return nil, false, err
		}
		return DropDatasetStmt{Name: name}, true, nil
	}
	return nil, false, nil
}

func (p *parser) expectName() (string, error) {
	if p.cur().kind == tokIdent {
		return p.next().text, nil
	}
	if p.cur().kind == tokString {
		return p.next().text, nil
	}
	return "", p.errf("expected a name, found %q", p.cur().text)
}

func (p *parser) parseCreate() (Stmt, bool, error) {
	p.next() // create
	switch {
	case p.accept(tokIdent, "dataverse"):
		name, err := p.expectName()
		return CreateDataverseStmt{Name: name}, true, err
	case p.accept(tokIdent, "dataset"):
		name, err := p.expectName()
		if err != nil {
			return nil, false, err
		}
		st := CreateDatasetStmt{Name: name}
		if _, err := p.expect(tokIdent, "primary"); err != nil {
			return nil, false, err
		}
		if _, err := p.expect(tokIdent, "key"); err != nil {
			return nil, false, err
		}
		st.PKField, err = p.expectName()
		if err != nil {
			return nil, false, err
		}
		if p.accept(tokIdent, "autogenerated") {
			st.AutoPK = true
		}
		return st, true, nil
	case p.accept(tokIdent, "index"):
		st := CreateIndexStmt{}
		var err error
		st.Name, err = p.expectName()
		if err != nil {
			return nil, false, err
		}
		if _, err := p.expect(tokIdent, "on"); err != nil {
			return nil, false, err
		}
		st.Dataset, err = p.expectName()
		if err != nil {
			return nil, false, err
		}
		if _, err := p.expect(tokPunct, "("); err != nil {
			return nil, false, err
		}
		// Field may be a dotted path (user.name).
		field, err := p.expectName()
		if err != nil {
			return nil, false, err
		}
		for p.accept(tokPunct, ".") {
			sub, err := p.expectName()
			if err != nil {
				return nil, false, err
			}
			field += "." + sub
		}
		st.Field = field
		if _, err := p.expect(tokPunct, ")"); err != nil {
			return nil, false, err
		}
		if _, err := p.expect(tokIdent, "type"); err != nil {
			return nil, false, err
		}
		st.IType, err = p.expectName()
		if err != nil {
			return nil, false, err
		}
		if st.IType == "ngram" {
			if _, err := p.expect(tokPunct, "("); err != nil {
				return nil, false, err
			}
			n, err := p.expect(tokInt, "")
			if err != nil {
				return nil, false, err
			}
			st.GramLen, _ = strconv.Atoi(n.text)
			if _, err := p.expect(tokPunct, ")"); err != nil {
				return nil, false, err
			}
		}
		return st, true, nil
	case p.accept(tokIdent, "function"):
		st := CreateFunctionStmt{}
		var err error
		st.Name, err = p.expectName()
		if err != nil {
			return nil, false, err
		}
		if _, err := p.expect(tokPunct, "("); err != nil {
			return nil, false, err
		}
		for !p.accept(tokPunct, ")") {
			if len(st.Params) > 0 {
				if _, err := p.expect(tokPunct, ","); err != nil {
					return nil, false, err
				}
			}
			v := p.cur()
			if v.kind != tokVar && v.kind != tokIdent {
				return nil, false, p.errf("expected parameter name")
			}
			p.next()
			st.Params = append(st.Params, v.text)
		}
		if _, err := p.expect(tokPunct, "{"); err != nil {
			return nil, false, err
		}
		st.Body, err = p.parseExpr()
		if err != nil {
			return nil, false, err
		}
		if _, err := p.expect(tokPunct, "}"); err != nil {
			return nil, false, err
		}
		return st, true, nil
	}
	return nil, false, p.errf("unsupported create statement")
}

// parseExpr parses with standard precedence: or > and > not >
// comparison > additive > multiplicative > unary > postfix > primary.
// FLWOR and join clauses are primaries.
func (p *parser) parseExpr() (Node, error) { return p.parseOr() }

func (p *parser) parseOr() (Node, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.accept(tokIdent, "or") {
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = BinNode{Op: "or", L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseAnd() (Node, error) {
	l, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.accept(tokIdent, "and") {
		r, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		l = BinNode{Op: "and", L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseNot() (Node, error) {
	if p.accept(tokIdent, "not") {
		x, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return UnaryNode{Op: "not", X: x}, nil
	}
	return p.parseComparison()
}

func (p *parser) parseComparison() (Node, error) {
	l, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	for _, op := range []string{"=", "!=", "<=", ">=", "<", ">", "~="} {
		if p.peekIs(tokOp, op) {
			p.next()
			r, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			return BinNode{Op: op, L: l, R: r}, nil
		}
	}
	return l, nil
}

func (p *parser) parseAdditive() (Node, error) {
	l, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.accept(tokOp, "+"):
			r, err := p.parseMultiplicative()
			if err != nil {
				return nil, err
			}
			l = BinNode{Op: "+", L: l, R: r}
		case p.accept(tokOp, "-"):
			r, err := p.parseMultiplicative()
			if err != nil {
				return nil, err
			}
			l = BinNode{Op: "-", L: l, R: r}
		default:
			return l, nil
		}
	}
}

func (p *parser) parseMultiplicative() (Node, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.accept(tokOp, "*"):
			r, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			l = BinNode{Op: "*", L: l, R: r}
		case p.accept(tokOp, "/"):
			r, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			l = BinNode{Op: "/", L: l, R: r}
		case p.accept(tokOp, "%"):
			r, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			l = BinNode{Op: "%", L: l, R: r}
		default:
			return l, nil
		}
	}
}

func (p *parser) parseUnary() (Node, error) {
	if p.accept(tokOp, "-") {
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return UnaryNode{Op: "-", X: x}, nil
	}
	return p.parsePostfix()
}

func (p *parser) parsePostfix() (Node, error) {
	e, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.accept(tokPunct, "."):
			name, err := p.expectName()
			if err != nil {
				return nil, err
			}
			e = FieldNode{Base: e, Field: name}
		case p.accept(tokPunct, "["):
			idx, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tokPunct, "]"); err != nil {
				return nil, err
			}
			e = IndexNode{Base: e, Idx: idx}
		default:
			return e, nil
		}
	}
}

func (p *parser) parsePrimary() (Node, error) {
	t := p.cur()
	switch t.kind {
	case tokHint:
		p.next()
		x, err := p.parsePostfix()
		if err != nil {
			return nil, err
		}
		return HintNode{Hint: t.text, X: x}, nil
	case tokInt, tokDouble:
		p.next()
		v, err := numberValue(t.kind, t.text)
		if err != nil {
			return nil, p.errf("%v", err)
		}
		return LitNode{Val: v, Slot: p.slot(t)}, nil
	case tokString:
		p.next()
		return LitNode{Val: adm.NewString(t.text), Slot: p.slot(t)}, nil
	case tokVar:
		p.next()
		return VarNode{Name: t.text}, nil
	case tokMetaVar:
		p.next()
		return MetaVarNode{Name: t.text}, nil
	case tokMetaClause:
		p.next()
		return MetaClauseNode{Name: t.text}, nil
	case tokPunct:
		switch t.text {
		case "(":
			p.next()
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			_, err = p.expect(tokPunct, ")")
			return e, err
		case "{":
			return p.parseRecord()
		case "[":
			return p.parseList()
		}
	case tokIdent:
		switch t.text {
		case "for", "let":
			return p.parseFLWOR()
		case "true":
			p.next()
			return LitNode{Val: adm.NewBool(true)}, nil
		case "false":
			p.next()
			return LitNode{Val: adm.NewBool(false)}, nil
		case "null":
			p.next()
			return LitNode{Val: adm.Null}, nil
		case "dataset":
			p.next()
			if p.accept(tokPunct, "(") {
				name, err := p.expect(tokString, "")
				if err != nil {
					return nil, err
				}
				_, err = p.expect(tokPunct, ")")
				return DatasetNode{Name: name.text}, err
			}
			name, err := p.expectName()
			return DatasetNode{Name: name}, err
		case "union":
			p.next()
			if _, err := p.expect(tokPunct, "("); err != nil {
				return nil, err
			}
			var branches []Node
			for {
				b, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				branches = append(branches, b)
				if !p.accept(tokPunct, ",") {
					break
				}
			}
			if _, err := p.expect(tokPunct, ")"); err != nil {
				return nil, err
			}
			if len(branches) < 2 {
				return nil, p.errf("union needs at least two branches")
			}
			return UnionNode{Branches: branches}, nil
		default:
			// Function call or bare identifier (error).
			p.next()
			if p.accept(tokPunct, "(") {
				var args []Node
				for !p.peekIs(tokPunct, ")") {
					if len(args) > 0 {
						if _, err := p.expect(tokPunct, ","); err != nil {
							return nil, err
						}
					}
					a, err := p.parseExpr()
					if err != nil {
						return nil, err
					}
					args = append(args, a)
				}
				p.next() // ')'
				return CallNode{Name: t.text, Args: args}, nil
			}
			return nil, p.errf("unexpected identifier %q", t.text)
		}
	}
	return nil, p.errf("unexpected token %q", t.text)
}

func (p *parser) parseRecord() (Node, error) {
	p.next() // '{'
	rec := RecordNode{}
	for !p.peekIs(tokPunct, "}") {
		if len(rec.Keys) > 0 {
			if _, err := p.expect(tokPunct, ","); err != nil {
				return nil, err
			}
		}
		key := p.cur()
		if key.kind != tokString && key.kind != tokIdent {
			return nil, p.errf("record field name expected")
		}
		p.next()
		if _, err := p.expect(tokPunct, ":"); err != nil {
			return nil, err
		}
		val, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		rec.Keys = append(rec.Keys, key.text)
		rec.Vals = append(rec.Vals, val)
	}
	p.next() // '}'
	return rec, nil
}

func (p *parser) parseList() (Node, error) {
	p.next() // '['
	lst := ListNode{}
	for !p.peekIs(tokPunct, "]") {
		if len(lst.Elems) > 0 {
			if _, err := p.expect(tokPunct, ","); err != nil {
				return nil, err
			}
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		lst.Elems = append(lst.Elems, e)
	}
	p.next() // ']'
	return lst, nil
}

// parseFLWOR parses a FLWOR expression: one or more for/let clauses,
// interleaved where/group/order/limit/join clauses, then return.
func (p *parser) parseFLWOR() (Node, error) {
	fl := FLWORNode{}
	for {
		switch {
		case p.peekIdent("for"):
			p.next()
			v, err := p.expect(tokVar, "")
			if err != nil {
				return nil, err
			}
			fc := ForClause{V: v.text}
			if p.accept(tokIdent, "at") {
				pv, err := p.expect(tokVar, "")
				if err != nil {
					return nil, err
				}
				fc.Pos = pv.text
			}
			if _, err := p.expect(tokIdent, "in"); err != nil {
				return nil, err
			}
			fc.In, err = p.parseExpr()
			if err != nil {
				return nil, err
			}
			fl.Clauses = append(fl.Clauses, fc)
		case p.peekIdent("join"):
			p.next()
			v, err := p.expect(tokVar, "")
			if err != nil {
				return nil, err
			}
			jc := JoinClause{V: v.text}
			if _, err := p.expect(tokIdent, "in"); err != nil {
				return nil, err
			}
			jc.In, err = p.parseExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tokIdent, "on"); err != nil {
				return nil, err
			}
			jc.On, err = p.parseExpr()
			if err != nil {
				return nil, err
			}
			fl.Clauses = append(fl.Clauses, jc)
		case p.peekIdent("let"):
			p.next()
			v, err := p.expect(tokVar, "")
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tokOp, ":="); err != nil {
				return nil, err
			}
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			fl.Clauses = append(fl.Clauses, LetClause{V: v.text, E: e})
		case p.peekIdent("where"):
			p.next()
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			fl.Clauses = append(fl.Clauses, WhereClause{E: e})
		case p.cur().kind == tokHint || p.peekIdent("group"):
			hint := ""
			if p.cur().kind == tokHint {
				hint = p.cur().text
				p.next()
				if !p.peekIdent("group") {
					return nil, p.errf("hint must precede a group by clause here")
				}
			}
			p.next() // group
			if _, err := p.expect(tokIdent, "by"); err != nil {
				return nil, err
			}
			gc := GroupClause{Hint: hint}
			for {
				v, err := p.expect(tokVar, "")
				if err != nil {
					return nil, err
				}
				if _, err := p.expect(tokOp, ":="); err != nil {
					return nil, err
				}
				e, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				gc.Keys = append(gc.Keys, GroupKey{V: v.text, E: e})
				if !p.accept(tokPunct, ",") {
					break
				}
			}
			if _, err := p.expect(tokIdent, "with"); err != nil {
				return nil, err
			}
			for {
				v, err := p.expect(tokVar, "")
				if err != nil {
					return nil, err
				}
				gc.With = append(gc.With, v.text)
				if !p.accept(tokPunct, ",") {
					break
				}
			}
			fl.Clauses = append(fl.Clauses, gc)
		case p.peekIdent("order"):
			p.next()
			if _, err := p.expect(tokIdent, "by"); err != nil {
				return nil, err
			}
			oc := OrderClause{}
			for {
				e, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				item := OrderItem{E: e}
				if p.accept(tokIdent, "desc") {
					item.Desc = true
				} else {
					p.accept(tokIdent, "asc")
				}
				oc.Items = append(oc.Items, item)
				if !p.accept(tokPunct, ",") {
					break
				}
			}
			fl.Clauses = append(fl.Clauses, oc)
		case p.peekIdent("limit"):
			p.next()
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			fl.Clauses = append(fl.Clauses, LimitClause{E: e})
		case p.peekIdent("return"):
			p.next()
			ret, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			fl.Ret = ret
			return fl, nil
		default:
			if len(fl.Clauses) == 0 {
				return nil, p.errf("expected FLWOR clause")
			}
			// Fragment form: clauses without return (AQL+ templates).
			return fl, nil
		}
	}
}
