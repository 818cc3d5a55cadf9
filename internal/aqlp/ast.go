package aqlp

import "simdb/internal/adm"

// Query is a parsed AQL request: leading statements (use/set/DDL/UDF
// definitions) followed by an optional query body expression.
type Query struct {
	Stmts []Stmt
	Body  Node
}

// Stmt is a top-level statement.
type Stmt interface{ stmtNode() }

// UseStmt selects the default dataverse.
type UseStmt struct{ Dataverse string }

// SetStmt sets a compiler property (simfunction, simthreshold).
type SetStmt struct{ Key, Val string }

// CreateFunctionStmt declares an AQL UDF; the body is inlined at use
// sites during translation.
type CreateFunctionStmt struct {
	Name   string
	Params []string
	Body   Node
}

// CreateDataverseStmt creates a dataverse.
type CreateDataverseStmt struct{ Name string }

// CreateDatasetStmt creates a dataset with the given primary-key field.
type CreateDatasetStmt struct {
	Name    string
	PKField string
	// AutoPK requests an auto-generated integer key when records lack
	// the field, like the paper's imported datasets.
	AutoPK bool
}

// CreateIndexStmt creates a secondary index: type is "btree",
// "keyword", or "ngram" (with GramLen).
type CreateIndexStmt struct {
	Name    string
	Dataset string
	Field   string
	IType   string
	GramLen int
}

// DropDatasetStmt removes a dataset.
type DropDatasetStmt struct{ Name string }

func (UseStmt) stmtNode()             {}
func (SetStmt) stmtNode()             {}
func (CreateFunctionStmt) stmtNode()  {}
func (CreateDataverseStmt) stmtNode() {}
func (CreateDatasetStmt) stmtNode()   {}
func (CreateIndexStmt) stmtNode()     {}
func (DropDatasetStmt) stmtNode()     {}

// Node is an expression AST node.
type Node interface{ astNode() }

// LitNode is a literal value. Slot is one more than the index of the
// literal token it was read from among the request's literals (the
// index of its Shape parameter); 0 for a literal of a statement, such as
// a UDF body's.
type LitNode struct {
	Val  adm.Value
	Slot int
}

// VarNode references a $variable.
type VarNode struct{ Name string }

// MetaVarNode references an AQL+ $$meta variable (resolved against the
// optimizer-provided meta environment).
type MetaVarNode struct{ Name string }

// MetaClauseNode references an AQL+ ##meta clause (a registered
// subplan); legal in for-in position.
type MetaClauseNode struct{ Name string }

// DatasetNode references a dataset in for-in position: dataset Name or
// dataset('Name').
type DatasetNode struct{ Name string }

// FieldNode accesses base.field.
type FieldNode struct {
	Base  Node
	Field string
}

// IndexNode accesses base[idx].
type IndexNode struct {
	Base Node
	Idx  Node
}

// CallNode invokes a builtin or UDF.
type CallNode struct {
	Name string
	Args []Node
}

// BinNode is a binary operation; Op is the surface token ("=", "~=",
// "+", "and", …).
type BinNode struct {
	Op   string
	L, R Node
}

// UnaryNode is -x or not x.
type UnaryNode struct {
	Op string
	X  Node
}

// RecordNode constructs a record.
type RecordNode struct {
	Keys []string
	Vals []Node
}

// ListNode constructs an ordered list.
type ListNode struct{ Elems []Node }

// HintNode attaches a compiler hint to the following expression
// (e.g. /*+ bcast */ $x).
type HintNode struct {
	Hint string
	X    Node
}

// UnionNode is the AQL+ union of branches, legal in for-in position.
type UnionNode struct{ Branches []Node }

// FLWORNode is a FLWOR expression.
type FLWORNode struct {
	Clauses []Clause
	Ret     Node
}

// Clause is a FLWOR clause.
type Clause interface{ clauseNode() }

// ForClause is "for $v [at $p] in expr".
type ForClause struct {
	V   string
	Pos string
	In  Node
}

// LetClause is "let $v := expr".
type LetClause struct {
	V string
	E Node
}

// WhereClause filters.
type WhereClause struct{ E Node }

// GroupClause is "group by $k := e, ... with $v, ..." with an optional
// /*+ hash */ hint.
type GroupClause struct {
	Keys []GroupKey
	With []string
	Hint string
}

// GroupKey is one grouping key.
type GroupKey struct {
	V string
	E Node
}

// OrderClause is "order by e [desc], ...".
type OrderClause struct{ Items []OrderItem }

// OrderItem is one sort key.
type OrderItem struct {
	E    Node
	Desc bool
}

// LimitClause bounds the result count.
type LimitClause struct{ E Node }

// JoinClause is the AQL+ explicit join: "join $v in (expr) on cond".
type JoinClause struct {
	V  string
	In Node
	On Node
}

func (LitNode) astNode()        {}
func (VarNode) astNode()        {}
func (MetaVarNode) astNode()    {}
func (MetaClauseNode) astNode() {}
func (DatasetNode) astNode()    {}
func (FieldNode) astNode()      {}
func (IndexNode) astNode()      {}
func (CallNode) astNode()       {}
func (BinNode) astNode()        {}
func (UnaryNode) astNode()      {}
func (RecordNode) astNode()     {}
func (ListNode) astNode()       {}
func (HintNode) astNode()       {}
func (UnionNode) astNode()      {}
func (FLWORNode) astNode()      {}

func (ForClause) clauseNode()   {}
func (LetClause) clauseNode()   {}
func (WhereClause) clauseNode() {}
func (GroupClause) clauseNode() {}
func (OrderClause) clauseNode() {}
func (LimitClause) clauseNode() {}
func (JoinClause) clauseNode()  {}
