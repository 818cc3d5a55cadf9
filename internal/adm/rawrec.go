package adm

import (
	"encoding/binary"
	"fmt"
)

// Raw record access: split an encoded record into its top-level fields
// without decoding the field values, and reassemble it byte for byte.
// The columnar storage format relies on this to shred records into
// per-field columns at flush/merge time and to reconstruct the exact
// original entry bytes on read, so row-format and columnar components
// remain interchangeable at the byte level.

// RawField is one top-level field of an encoded record. Name and Val
// are sub-slices of the buffer passed to SplitRecord and stay valid
// only as long as that buffer does; Val holds the field's complete
// encoded value (tag byte included).
type RawField struct {
	Name []byte
	Val  []byte
}

// SplitRecord splits an encoded top-level record into its fields
// without decoding the field values. ok is false when b is not a
// record, is malformed, has trailing bytes, or uses non-canonical
// (over-long) varints in its record skeleton — any case where
// AppendRecordFromRaw could not reproduce b exactly. When ok is true,
// AppendRecordFromRaw(nil, fields) == b byte for byte: field value
// bytes are carried verbatim, and every re-encoded skeleton varint was
// verified to be minimal.
func SplitRecord(b []byte) ([]RawField, bool) {
	if len(b) == 0 || Kind(b[0]) != KindRecord {
		return nil, false
	}
	p := 1
	nf, n := binary.Uvarint(b[p:])
	if n <= 0 || n != uvarintLen(nf) {
		return nil, false
	}
	p += n
	// Each field takes at least two bytes (name length + value tag); a
	// larger count is corrupt and would drive a huge preallocation.
	if nf > uint64(len(b)) {
		return nil, false
	}
	fields := make([]RawField, 0, nf)
	for i := uint64(0); i < nf; i++ {
		nl, n := binary.Uvarint(b[p:])
		if n <= 0 || n != uvarintLen(nl) || nl > uint64(len(b)-p-n) {
			return nil, false
		}
		p += n
		name := b[p : p+int(nl)]
		p += int(nl)
		vn, err := skipValue(b[p:])
		if err != nil {
			return nil, false
		}
		fields = append(fields, RawField{Name: name, Val: b[p : p+vn]})
		p += vn
	}
	if p != len(b) {
		return nil, false
	}
	return fields, true
}

// AppendRecordFromRaw appends the record encoding of fields to dst.
// Inverse of SplitRecord: when SplitRecord(b) returned (fields, true),
// the appended bytes equal b.
func AppendRecordFromRaw(dst []byte, fields []RawField) []byte {
	dst = append(dst, byte(KindRecord))
	dst = binary.AppendUvarint(dst, uint64(len(fields)))
	for _, f := range fields {
		dst = binary.AppendUvarint(dst, uint64(len(f.Name)))
		dst = append(dst, f.Name...)
		dst = append(dst, f.Val...)
	}
	return dst
}

// RawRecordSize returns len(AppendRecordFromRaw(nil, fields)).
func RawRecordSize(fields []RawField) int {
	n := 1 + uvarintLen(uint64(len(fields)))
	for _, f := range fields {
		n += uvarintLen(uint64(len(f.Name))) + len(f.Name) + len(f.Val)
	}
	return n
}

// skipValue returns how many bytes the encoded value at the front of b
// occupies, without materializing it. It consumes exactly the bytes
// Decode would.
func skipValue(b []byte) (int, error) {
	if len(b) == 0 {
		return 0, fmt.Errorf("adm: skip: empty buffer")
	}
	p := 1
	switch Kind(b[0]) {
	case KindNull:
		return p, nil
	case KindBool:
		if len(b) < 2 {
			return 0, fmt.Errorf("adm: skip bool: short buffer")
		}
		return 2, nil
	case KindInt:
		_, n := binary.Varint(b[p:])
		if n <= 0 {
			return 0, fmt.Errorf("adm: skip int: bad varint")
		}
		return p + n, nil
	case KindDouble:
		if len(b) < p+8 {
			return 0, fmt.Errorf("adm: skip double: short buffer")
		}
		return p + 8, nil
	case KindString:
		l, n := binary.Uvarint(b[p:])
		if n <= 0 {
			return 0, fmt.Errorf("adm: skip string: bad length")
		}
		p += n
		if l > uint64(len(b)-p) {
			return 0, fmt.Errorf("adm: skip string: short buffer")
		}
		return p + int(l), nil
	case KindList, KindBag:
		l, n := binary.Uvarint(b[p:])
		if n <= 0 {
			return 0, fmt.Errorf("adm: skip list: bad length")
		}
		p += n
		for i := uint64(0); i < l; i++ {
			vn, err := skipValue(b[p:])
			if err != nil {
				return 0, err
			}
			p += vn
		}
		return p, nil
	case KindRecord:
		l, n := binary.Uvarint(b[p:])
		if n <= 0 {
			return 0, fmt.Errorf("adm: skip record: bad length")
		}
		p += n
		for i := uint64(0); i < l; i++ {
			nl, n := binary.Uvarint(b[p:])
			if n <= 0 || nl > uint64(len(b)-p-n) {
				return 0, fmt.Errorf("adm: skip record: bad name")
			}
			p += n + int(nl)
			vn, err := skipValue(b[p:])
			if err != nil {
				return 0, err
			}
			p += vn
		}
		return p, nil
	}
	return 0, fmt.Errorf("adm: skip: unknown kind %d", b[0])
}

// KeepSet is the set of top-level field names a projected decode
// materializes. Each name maps to itself, so a decoded record names its
// fields with the set's strings — built once per operator — instead of
// allocating a name per kept field per record.
type KeepSet map[string]string

// NewKeepSet builds the set of fields; nil (no projection) stays nil.
func NewKeepSet(fields []string) KeepSet {
	if fields == nil {
		return nil
	}
	keep := make(KeepSet, len(fields))
	for _, f := range fields {
		keep[f] = f
	}
	return keep
}

// DecodeRecordProjected decodes the encoded record at the front of b,
// materializing only the fields in keep and skipping over the rest
// without allocation. ok is false when b does not start with a
// well-formed record — callers fall back to a full Decode. Projected
// fields keep their record order.
func DecodeRecordProjected(b []byte, keep KeepSet) (Value, bool) {
	if len(b) == 0 || Kind(b[0]) != KindRecord {
		return Null, false
	}
	p := 1
	nf, n := binary.Uvarint(b[p:])
	if n <= 0 {
		return Null, false
	}
	p += n
	rec := EmptyRecord(len(keep))
	for i := uint64(0); i < nf; i++ {
		nl, n := binary.Uvarint(b[p:])
		if n <= 0 || nl > uint64(len(b)-p-n) {
			return Null, false
		}
		p += n
		name := b[p : p+int(nl)]
		p += int(nl)
		if own, ok := keep[string(name)]; ok {
			fv, vn, err := Decode(b[p:])
			if err != nil {
				return Null, false
			}
			rec.Set(own, fv)
			p += vn
		} else {
			vn, err := skipValue(b[p:])
			if err != nil {
				return Null, false
			}
			p += vn
		}
	}
	return NewRecord(rec), true
}

// RawFieldValue returns the encoded value (tag byte first) of the
// top-level field name of the encoded record at the front of b, as a
// sub-slice of b and without decoding anything. ok is false when b is
// not a well-formed record or has no such field. The walk covers every
// field, as Decode's does: a repeated name resolves to its last
// occurrence, and a record Decode would reject is not ok.
func RawFieldValue(b []byte, name string) (val []byte, ok bool) {
	if len(b) == 0 || Kind(b[0]) != KindRecord {
		return nil, false
	}
	p := 1
	nf, n := binary.Uvarint(b[p:])
	if n <= 0 {
		return nil, false
	}
	p += n
	for i := uint64(0); i < nf; i++ {
		nl, n := binary.Uvarint(b[p:])
		if n <= 0 || nl > uint64(len(b)-p-n) {
			return nil, false
		}
		p += n
		match := string(b[p:p+int(nl)]) == name
		p += int(nl)
		vn, err := skipValue(b[p:])
		if err != nil {
			return nil, false
		}
		if match {
			val, ok = b[p:p+vn], true
		}
		p += vn
	}
	return val, ok
}

// RawString returns the bytes of the string encoded at the front of v,
// as a sub-slice of v. ok is false when v does not start with a whole
// encoded string.
func RawString(v []byte) (s []byte, ok bool) {
	if len(v) == 0 || Kind(v[0]) != KindString {
		return nil, false
	}
	l, n := binary.Uvarint(v[1:])
	if n <= 0 || l > uint64(len(v)-1-n) {
		return nil, false
	}
	return v[1+n : 1+n+int(l)], true
}
