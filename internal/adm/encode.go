package adm

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Binary encoding: one tag byte followed by a kind-specific payload.
// Variable-length quantities use unsigned varints. The encoding is the
// wire and storage format: the LSM components store encoded values and
// the simulated cluster connectors count encoded bytes as network
// traffic.

// Append appends the binary encoding of v to dst and returns the
// extended slice.
func Append(dst []byte, v Value) []byte {
	dst = append(dst, byte(v.kind))
	switch v.kind {
	case KindNull:
	case KindBool:
		if v.boolean() {
			dst = append(dst, 1)
		} else {
			dst = append(dst, 0)
		}
	case KindInt:
		dst = binary.AppendVarint(dst, v.integer())
	case KindDouble:
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v.double()))
	case KindString:
		s := v.str()
		dst = binary.AppendUvarint(dst, uint64(len(s)))
		dst = append(dst, s...)
	case KindList, KindBag:
		elems := v.elems()
		dst = binary.AppendUvarint(dst, uint64(len(elems)))
		for _, e := range elems {
			dst = Append(dst, e)
		}
	case KindRecord:
		r := v.rec()
		dst = binary.AppendUvarint(dst, uint64(r.Len()))
		for i := 0; i < r.Len(); i++ {
			n, fv := r.FieldAt(i)
			dst = binary.AppendUvarint(dst, uint64(len(n)))
			dst = append(dst, n...)
			dst = Append(dst, fv)
		}
	}
	return dst
}

// Encode returns the binary encoding of v.
func Encode(v Value) []byte { return Append(nil, v) }

// EncodedSize returns len(Encode(v)) without allocating the full buffer
// for scalars; composite values are sized recursively.
func EncodedSize(v Value) int {
	switch v.kind {
	case KindNull:
		return 1
	case KindBool:
		return 2
	case KindInt:
		var tmp [binary.MaxVarintLen64]byte
		return 1 + binary.PutVarint(tmp[:], v.integer())
	case KindDouble:
		return 9
	case KindString:
		s := v.str()
		return 1 + uvarintLen(uint64(len(s))) + len(s)
	case KindList, KindBag:
		elems := v.elems()
		n := 1 + uvarintLen(uint64(len(elems)))
		for _, e := range elems {
			n += EncodedSize(e)
		}
		return n
	case KindRecord:
		r := v.rec()
		n := 1 + uvarintLen(uint64(r.Len()))
		for i := 0; i < r.Len(); i++ {
			name, fv := r.FieldAt(i)
			n += uvarintLen(uint64(len(name))) + len(name) + EncodedSize(fv)
		}
		return n
	}
	return 0
}

func uvarintLen(x uint64) int {
	n := 1
	for x >= 0x80 {
		x >>= 7
		n++
	}
	return n
}

// Decode decodes one value from the front of buf and returns it with
// the number of bytes consumed.
func Decode(buf []byte) (Value, int, error) {
	if len(buf) == 0 {
		return Null, 0, fmt.Errorf("adm: decode: empty buffer")
	}
	kind := Kind(buf[0])
	p := 1
	switch kind {
	case KindNull:
		return Null, p, nil
	case KindBool:
		if len(buf) < 2 {
			return Null, 0, fmt.Errorf("adm: decode bool: short buffer")
		}
		return NewBool(buf[1] != 0), 2, nil
	case KindInt:
		i, n := binary.Varint(buf[p:])
		if n <= 0 {
			return Null, 0, fmt.Errorf("adm: decode int: bad varint")
		}
		return NewInt(i), p + n, nil
	case KindDouble:
		if len(buf) < p+8 {
			return Null, 0, fmt.Errorf("adm: decode double: short buffer")
		}
		bits := binary.LittleEndian.Uint64(buf[p:])
		return NewDouble(math.Float64frombits(bits)), p + 8, nil
	case KindString:
		l, n := binary.Uvarint(buf[p:])
		if n <= 0 {
			return Null, 0, fmt.Errorf("adm: decode string: bad length")
		}
		p += n
		if uint64(len(buf)-p) < l {
			return Null, 0, fmt.Errorf("adm: decode string: short buffer")
		}
		return NewString(string(buf[p : p+int(l)])), p + int(l), nil
	case KindList, KindBag:
		l, n := binary.Uvarint(buf[p:])
		if n <= 0 {
			return Null, 0, fmt.Errorf("adm: decode list: bad length")
		}
		p += n
		if uint64(len(buf)-p) < l { // every element takes at least one byte
			return Null, 0, fmt.Errorf("adm: decode list: short buffer")
		}
		elems := make([]Value, 0, l)
		for i := uint64(0); i < l; i++ {
			e, n, err := Decode(buf[p:])
			if err != nil {
				return Null, 0, err
			}
			elems = append(elems, e)
			p += n
		}
		if kind == KindList {
			return NewList(elems), p, nil
		}
		return NewBag(elems), p, nil
	case KindRecord:
		l, n := binary.Uvarint(buf[p:])
		if n <= 0 {
			return Null, 0, fmt.Errorf("adm: decode record: bad length")
		}
		p += n
		if l > uint64(len(buf)-p)/2 { // every field takes at least two bytes
			return Null, 0, fmt.Errorf("adm: decode record: short buffer")
		}
		rec := EmptyRecord(int(l))
		for i := uint64(0); i < l; i++ {
			nl, n := binary.Uvarint(buf[p:])
			if n <= 0 {
				return Null, 0, fmt.Errorf("adm: decode record: bad name length")
			}
			p += n
			if uint64(len(buf)-p) < nl {
				return Null, 0, fmt.Errorf("adm: decode record: short buffer")
			}
			name := string(buf[p : p+int(nl)])
			p += int(nl)
			fv, n2, err := Decode(buf[p:])
			if err != nil {
				return Null, 0, err
			}
			p += n2
			rec.Set(name, fv)
		}
		return NewRecord(rec), p, nil
	}
	return Null, 0, fmt.Errorf("adm: decode: unknown kind %d", kind)
}

// MustDecode decodes one value and panics on error or trailing bytes;
// it is a convenience for internal buffers known to hold one value.
func MustDecode(buf []byte) Value {
	v, n, err := Decode(buf)
	if err != nil {
		panic(err)
	}
	if n != len(buf) {
		panic(fmt.Sprintf("adm: MustDecode: %d trailing bytes", len(buf)-n))
	}
	return v
}
