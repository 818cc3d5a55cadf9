package adm

import (
	"encoding/binary"
	"math"
)

// Order-preserving ("memcomparable") key encoding: for scalar values a
// and b, bytes.Compare(OrderedKey(a), OrderedKey(b)) == Compare(a, b).
// The storage layer keys every B+-tree-style component with this
// encoding so that binary key comparison implements the data model's
// order. Encodings are self-terminating, so concatenating ordered keys
// yields an order-preserving composite key — the inverted indexes rely
// on this for their (token, primary key) entries.
//
// Scalars are supported, with one gap: every numeric is keyed by its
// float64 image, so two int64 values beyond ±2^53 that round to the same
// double share a key (their order is never inverted). Lists, bags, and
// records fall back to an encoding that is consistent (equal values
// encode equally) and totally ordered but only aligned with Compare
// within same-length prefixes; SimDB never range-scans composite-valued
// keys, so this suffices.

// AppendOrderedKey appends the ordered-key encoding of v to dst.
func AppendOrderedKey(dst []byte, v Value) []byte {
	dst = append(dst, byte(rankOf(v.kind)))
	switch v.kind {
	case KindNull:
	case KindBool:
		if v.boolean() {
			dst = append(dst, 1)
		} else {
			dst = append(dst, 0)
		}
	case KindInt, KindDouble:
		f, _ := v.Num()
		dst = appendOrderedFloat(dst, f)
	case KindString:
		dst = appendOrderedBytes(dst, v.str())
	case KindList, KindBag, KindRecord:
		// Composite fallback: element count then recursively ordered
		// elements. Bags use their sorted view, records their
		// name-sorted view, so equal values still encode equally.
		switch v.kind {
		case KindList:
			elems := v.elems()
			dst = binary.BigEndian.AppendUint32(dst, uint32(len(elems)))
			for _, e := range elems {
				dst = AppendOrderedKey(dst, e)
			}
		case KindBag:
			sorted := sortedCopy(v.elems())
			dst = binary.BigEndian.AppendUint32(dst, uint32(len(sorted)))
			for _, e := range sorted {
				dst = AppendOrderedKey(dst, e)
			}
		case KindRecord:
			r := v.rec()
			idx := r.sortedIdx()
			dst = binary.BigEndian.AppendUint32(dst, uint32(len(idx)))
			for _, i := range idx {
				dst = appendOrderedBytes(dst, r.names[i])
				dst = AppendOrderedKey(dst, r.vals[i])
			}
		}
	}
	return dst
}

// OrderedKey returns the ordered-key encoding of v.
func OrderedKey(v Value) []byte { return AppendOrderedKey(nil, v) }

// appendOrderedFloat encodes a float64 so that byte order equals
// numeric order: flip all bits for negatives, flip the sign bit for
// non-negatives, then store big-endian. NaN is canonicalized below
// -Inf, matching Compare's NaN-first total order; -0.0 becomes +0.0.
func appendOrderedFloat(dst []byte, f float64) []byte {
	var bits uint64
	switch {
	case math.IsNaN(f):
		bits = 0 // below every flipped negative
	default:
		if f == 0 {
			f = 0 // canonicalize -0.0
		}
		bits = math.Float64bits(f)
		if bits&(1<<63) != 0 {
			bits = ^bits
		} else {
			bits |= 1 << 63
		}
	}
	return binary.BigEndian.AppendUint64(dst, bits)
}

// appendOrderedBytes encodes a string with 0x00-escaping and a 0x00
// 0x01 terminator, preserving lexicographic order and remaining
// self-terminating (0x00 inside the payload becomes 0x00 0xFF, which
// sorts after any terminator).
func appendOrderedBytes(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c == 0x00 {
			dst = append(dst, 0x00, 0xFF)
		} else {
			dst = append(dst, c)
		}
	}
	return append(dst, 0x00, 0x01)
}
