package adm

import (
	"math"
	"sort"
)

// Compare defines a total order over all values: null < bool < numeric
// < string < list < bag < record; int and double compare numerically
// with each other. Lists compare lexicographically; bags compare as
// multisets (element-sorted); records compare field-name-sorted.
// It returns -1, 0, or +1.
func Compare(a, b Value) int {
	ka, kb := rankOf(a.kind), rankOf(b.kind)
	if ka != kb {
		if ka < kb {
			return -1
		}
		return 1
	}
	switch a.kind {
	case KindNull:
		return 0
	case KindBool:
		if a.boolean() == b.boolean() {
			return 0
		}
		if !a.boolean() {
			return -1
		}
		return 1
	case KindInt, KindDouble:
		return compareNum(a, b)
	case KindString:
		return compareStr(a.str(), b.str())
	case KindList:
		return compareElems(a.elems(), b.elems())
	case KindBag:
		return compareElems(sortedCopy(a.elems()), sortedCopy(b.elems()))
	case KindRecord:
		return compareRecords(a.rec(), b.rec())
	}
	return 0
}

// rankOf maps kinds to comparison ranks; int and double share a rank so
// that they compare numerically.
func rankOf(k Kind) int {
	switch k {
	case KindNull:
		return 0
	case KindBool:
		return 1
	case KindInt, KindDouble:
		return 2
	case KindString:
		return 3
	case KindList:
		return 4
	case KindBag:
		return 5
	case KindRecord:
		return 6
	}
	return 7
}

func compareNum(a, b Value) int {
	if a.kind == KindInt && b.kind == KindInt {
		switch {
		case a.integer() < b.integer():
			return -1
		case a.integer() > b.integer():
			return 1
		}
		return 0
	}
	fa, _ := a.Num()
	fb, _ := b.Num()
	// Order NaN before all other doubles so the order stays total.
	an, bn := math.IsNaN(fa), math.IsNaN(fb)
	switch {
	case an && bn:
		return 0
	case an:
		return -1
	case bn:
		return 1
	case fa < fb:
		return -1
	case fa > fb:
		return 1
	}
	// 0.0 == -0.0, int 1 == double 1.0.
	return 0
}

func compareStr(a, b string) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

func compareElems(a, b []Value) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if c := Compare(a[i], b[i]); c != 0 {
			return c
		}
	}
	switch {
	case len(a) < len(b):
		return -1
	case len(a) > len(b):
		return 1
	}
	return 0
}

func sortedCopy(elems []Value) []Value {
	cp := make([]Value, len(elems))
	copy(cp, elems)
	sort.Slice(cp, func(i, j int) bool { return Compare(cp[i], cp[j]) < 0 })
	return cp
}

func compareRecords(a, b *Record) int {
	ia, ib := a.sortedIdx(), b.sortedIdx()
	n := len(ia)
	if len(ib) < n {
		n = len(ib)
	}
	for i := 0; i < n; i++ {
		if c := compareStr(a.names[ia[i]], b.names[ib[i]]); c != 0 {
			return c
		}
		if c := Compare(a.vals[ia[i]], b.vals[ib[i]]); c != 0 {
			return c
		}
	}
	switch {
	case len(ia) < len(ib):
		return -1
	case len(ia) > len(ib):
		return 1
	}
	return 0
}

// Equal reports whether a and b are equal under Compare.
func Equal(a, b Value) bool { return Compare(a, b) == 0 }

// Less reports whether a sorts before b under Compare.
func Less(a, b Value) bool { return Compare(a, b) < 0 }

// fnv-1a constants.
const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

// Hash returns a 64-bit hash of the value, consistent with Compare:
// equal values hash equally (including int 1 vs double 1.0, bags in any
// element order, and records in any field order).
func Hash(v Value) uint64 { return hashInto(fnvOffset, v) }

// HashSeed hashes v mixed with a seed; distinct seeds give independent
// partitioning and hash-table functions.
func HashSeed(seed uint64, v Value) uint64 {
	h := fnvOffset ^ (seed * fnvPrime)
	return hashInto(h, v)
}

func hashInto(h uint64, v Value) uint64 {
	switch v.kind {
	case KindNull:
		return hashByte(h, 0)
	case KindBool:
		if v.boolean() {
			return hashByte(hashByte(h, 1), 1)
		}
		return hashByte(hashByte(h, 1), 0)
	case KindInt, KindDouble:
		// Hash every numeric through its float64 image so that
		// int 1 and double 1.0 collide, matching Compare.
		f, _ := v.Num()
		if f == 0 {
			f = 0 // canonicalize -0.0
		}
		bits := math.Float64bits(f)
		h = hashByte(h, 2)
		for i := 0; i < 8; i++ {
			h = hashByte(h, byte(bits>>(8*i)))
		}
		return h
	case KindString:
		h = hashByte(h, 3)
		s := v.str()
		for i := 0; i < len(s); i++ {
			h = hashByte(h, s[i])
		}
		return h
	case KindList:
		h = hashByte(h, 4)
		for _, e := range v.elems() {
			h = hashInto(h, e)
		}
		return h
	case KindBag:
		// Order-insensitive: combine element hashes commutatively.
		var sum uint64
		for _, e := range v.elems() {
			sum += hashInto(fnvOffset, e)
		}
		h = hashByte(h, 5)
		for i := 0; i < 8; i++ {
			h = hashByte(h, byte(sum>>(8*i)))
		}
		return h
	case KindRecord:
		h = hashByte(h, 6)
		r := v.rec()
		for _, i := range r.sortedIdx() {
			h = hashInto(h, NewString(r.names[i]))
			h = hashInto(h, r.vals[i])
		}
		return h
	}
	return h
}

func hashByte(h uint64, b byte) uint64 {
	return (h ^ uint64(b)) * fnvPrime
}
