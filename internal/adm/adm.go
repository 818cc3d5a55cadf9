// Package adm implements the SimDB data model (ADM): a small,
// semi-structured value model with nulls, booleans, 64-bit integers,
// doubles, strings, ordered lists, unordered lists (bags), and records.
//
// The model mirrors the Asterix Data Model described in the paper
// "Supporting Similarity Queries in Apache AsterixDB" (EDBT 2018):
// records are open (no schema beyond the primary key is required), lists
// may be ordered (edit distance is defined on them) or unordered
// (Jaccard is defined on them), and every value has a total order, a
// hash, and a compact binary encoding used by the storage layer and the
// simulated cluster network.
package adm

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"unsafe"
)

// Kind identifies the runtime type of a Value.
type Kind uint8

// The value kinds, in comparison order: values of a smaller kind sort
// before values of a larger kind (except int/double, which compare
// numerically with each other).
const (
	KindNull Kind = iota
	KindBool
	KindInt
	KindDouble
	KindString
	KindList // ordered list
	KindBag  // unordered list (multiset)
	KindRecord
)

// String returns the ADM type name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "null"
	case KindBool:
		return "boolean"
	case KindInt:
		return "int64"
	case KindDouble:
		return "double"
	case KindString:
		return "string"
	case KindList:
		return "orderedlist"
	case KindBag:
		return "unorderedlist"
	case KindRecord:
		return "record"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Value is a single ADM value. The zero Value is null. Values are
// immutable by convention: callers must not modify a list or record
// after constructing a Value from it.
//
// A Value is a 24-byte tagged word with one pointer for the collector
// to scan: n holds a boolean, the int64, or the float64 bits, or the
// length of a string or list; p points to the string's bytes, the
// list's first element, or the *Record. Only the six accessors below
// (str, elems, rec, boolean, integer, double) read the payload. Values
// are not comparable with ==; compare them with Compare, not with
// reflect.DeepEqual, which would compare payload addresses.
type Value struct {
	_    [0]func() // not comparable
	p    unsafe.Pointer
	n    uint64
	kind Kind
}

func (v Value) str() string     { return unsafe.String((*byte)(v.p), int(v.n)) }
func (v Value) elems() []Value  { return unsafe.Slice((*Value)(v.p), int(v.n)) }
func (v Value) rec() *Record    { return (*Record)(v.p) }
func (v Value) boolean() bool   { return v.n != 0 }
func (v Value) integer() int64  { return int64(v.n) }
func (v Value) double() float64 { return math.Float64frombits(v.n) }

// Record is an ordered collection of (field name, value) pairs with
// unique names. Field order is the insertion order; comparisons and
// hashes are order-insensitive (they use the name-sorted view).
type Record struct {
	names []string
	vals  []Value
}

// Null is the null value.
var Null = Value{kind: KindNull}

// NewBool returns a boolean value.
func NewBool(b bool) Value {
	if b {
		return Value{kind: KindBool, n: 1}
	}
	return Value{kind: KindBool}
}

// NewInt returns an int64 value.
func NewInt(i int64) Value { return Value{kind: KindInt, n: uint64(i)} }

// NewDouble returns a double value.
func NewDouble(f float64) Value { return Value{kind: KindDouble, n: math.Float64bits(f)} }

// NewString returns a string value.
func NewString(s string) Value {
	return Value{kind: KindString, p: unsafe.Pointer(unsafe.StringData(s)), n: uint64(len(s))}
}

// NewList returns an ordered list value wrapping elems (not copied).
func NewList(elems []Value) Value { return newElems(KindList, elems) }

// NewBag returns an unordered list (bag) value wrapping elems (not copied).
func NewBag(elems []Value) Value { return newElems(KindBag, elems) }

func newElems(k Kind, elems []Value) Value {
	return Value{kind: k, p: unsafe.Pointer(unsafe.SliceData(elems)), n: uint64(len(elems))}
}

// NewRecord returns a record value wrapping rec.
func NewRecord(rec *Record) Value { return Value{kind: KindRecord, p: unsafe.Pointer(rec)} }

// NewStringList returns an ordered list of string values.
func NewStringList(ss []string) Value {
	elems := make([]Value, len(ss))
	for i, s := range ss {
		elems[i] = NewString(s)
	}
	return NewList(elems)
}

// Kind reports the value's kind.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether the value is null.
func (v Value) IsNull() bool { return v.kind == KindNull }

// Bool returns the boolean payload; it panics on other kinds.
func (v Value) Bool() bool {
	v.check(KindBool)
	return v.boolean()
}

// Int returns the int64 payload; it panics on other kinds.
func (v Value) Int() int64 {
	v.check(KindInt)
	return v.integer()
}

// Double returns the double payload; it panics on other kinds.
func (v Value) Double() float64 {
	v.check(KindDouble)
	return v.double()
}

// Str returns the string payload; it panics on other kinds.
func (v Value) Str() string {
	v.check(KindString)
	return v.str()
}

// Elems returns the elements of a list or bag; it panics on other kinds.
// Callers must not modify the returned slice. Its capacity is its
// length, so an append onto it copies.
func (v Value) Elems() []Value {
	if v.kind != KindList && v.kind != KindBag {
		panic(fmt.Sprintf("adm: Elems on %v value", v.kind))
	}
	return v.elems()
}

// Rec returns the record payload; it panics on other kinds.
func (v Value) Rec() *Record {
	v.check(KindRecord)
	return v.rec()
}

// Num returns the value as a float64 for numeric kinds (int, double)
// and reports whether the value was numeric.
func (v Value) Num() (float64, bool) {
	switch v.kind {
	case KindInt:
		return float64(v.integer()), true
	case KindDouble:
		return v.double(), true
	}
	return 0, false
}

func (v Value) check(k Kind) {
	if v.kind != k {
		panic(fmt.Sprintf("adm: %v accessor on %v value", k, v.kind))
	}
}

// NewRecordFromFields builds a record from parallel name/value slices.
// Names must be unique; the slices are not copied.
func NewRecordFromFields(names []string, vals []Value) *Record {
	if len(names) != len(vals) {
		panic("adm: mismatched record field slices")
	}
	return &Record{names: names, vals: vals}
}

// EmptyRecord returns a new record with no fields and capacity for n.
func EmptyRecord(n int) *Record {
	return &Record{names: make([]string, 0, n), vals: make([]Value, 0, n)}
}

// Len returns the number of fields.
func (r *Record) Len() int { return len(r.names) }

// FieldAt returns the i-th field name and value in insertion order.
func (r *Record) FieldAt(i int) (string, Value) { return r.names[i], r.vals[i] }

// Names returns the field names in insertion order. Callers must not
// modify the returned slice.
func (r *Record) Names() []string { return r.names }

// Get returns the value of the named field. Missing fields yield
// (Null, false), which gives the open-record semantics the paper's
// schemaless datasets rely on.
func (r *Record) Get(name string) (Value, bool) {
	for i, n := range r.names {
		if n == name {
			return r.vals[i], true
		}
	}
	return Null, false
}

// GetPath resolves a dotted field path such as "user.name".
func (r *Record) GetPath(path string) (Value, bool) {
	cur := NewRecord(r)
	for {
		dot := strings.IndexByte(path, '.')
		var name string
		if dot < 0 {
			name = path
		} else {
			name = path[:dot]
		}
		if cur.kind != KindRecord {
			return Null, false
		}
		v, ok := cur.rec().Get(name)
		if !ok {
			return Null, false
		}
		if dot < 0 {
			return v, true
		}
		cur, path = v, path[dot+1:]
	}
}

// Set appends a field or replaces an existing field of the same name.
func (r *Record) Set(name string, v Value) {
	for i, n := range r.names {
		if n == name {
			r.vals[i] = v
			return
		}
	}
	r.names = append(r.names, name)
	r.vals = append(r.vals, v)
}

// sortedIdx returns the field indexes ordered by field name; it is used
// for order-insensitive comparison and hashing.
func (r *Record) sortedIdx() []int {
	idx := make([]int, len(r.names))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return r.names[idx[a]] < r.names[idx[b]] })
	return idx
}

// String renders the value in a JSON-like syntax (bags use {{ }}).
func (v Value) String() string {
	var b strings.Builder
	v.appendTo(&b)
	return b.String()
}

func (v Value) appendTo(b *strings.Builder) {
	switch v.kind {
	case KindNull:
		b.WriteString("null")
	case KindBool:
		b.WriteString(strconv.FormatBool(v.boolean()))
	case KindInt:
		b.WriteString(strconv.FormatInt(v.integer(), 10))
	case KindDouble:
		f := v.double()
		if math.IsInf(f, 0) || math.IsNaN(f) {
			fmt.Fprintf(b, "%q", fmt.Sprint(f))
			return
		}
		s := strconv.FormatFloat(f, 'g', -1, 64)
		b.WriteString(s)
		if !strings.ContainsAny(s, ".eE") {
			b.WriteString(".0")
		}
	case KindString:
		b.WriteString(strconv.Quote(v.str()))
	case KindList, KindBag:
		open, close := "[", "]"
		if v.kind == KindBag {
			open, close = "{{", "}}"
		}
		b.WriteString(open)
		for i, e := range v.elems() {
			if i > 0 {
				b.WriteString(", ")
			}
			e.appendTo(b)
		}
		b.WriteString(close)
	case KindRecord:
		b.WriteByte('{')
		r := v.rec()
		for i := 0; i < r.Len(); i++ {
			if i > 0 {
				b.WriteString(", ")
			}
			n, fv := r.FieldAt(i)
			b.WriteString(strconv.Quote(n))
			b.WriteString(": ")
			fv.appendTo(b)
		}
		b.WriteByte('}')
	}
}
