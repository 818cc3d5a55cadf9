package adm

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"unsafe"
)

// TestValueLayout pins Value at three words: a pointer, the payload word
// and the kind. Every tuple, frame and table in the engine is a []Value,
// so a field added here multiplies through all of them.
func TestValueLayout(t *testing.T) {
	if got := unsafe.Sizeof(Value{}); got != 24 {
		t.Fatalf("unsafe.Sizeof(Value{}) = %d, want 24", got)
	}
}

func TestValuePayloadEdgeCases(t *testing.T) {
	long := strings.Repeat("similarity ", 10000)
	arr := []Value{NewInt(1), NewString("b"), NewDouble(2.5)}
	inner := EmptyRecord(2)
	inner.Set("name", NewString("ann"))
	inner.Set("tags", NewBag([]Value{NewString("x"), NewString("y")}))
	outer := EmptyRecord(2)
	outer.Set("id", NewInt(-7))
	outer.Set("user", NewRecord(inner))
	for _, tc := range []struct {
		name string
		v    Value
		want string // String()
	}{
		{"empty string", NewString(""), `""`},
		{"long string", NewString(long), `"` + long + `"`},
		{"substring", NewString(long[3:14]), `"ilarity sim"`},
		{"nil list", NewList(nil), `[]`},
		{"empty list", NewList([]Value{}), `[]`},
		{"empty tail of a full slice", NewList(arr[3:3]), `[]`},
		{"empty middle of a slice", NewBag(arr[1:1]), `{{}}`},
		{"sub-slice", NewList(arr[1:3]), `["b", 2.5]`},
		{"bag", NewBag(arr), `{{1, "b", 2.5}}`},
		{"nested record", NewRecord(outer), `{"id": -7, "user": {"name": "ann", "tags": {{"x", "y"}}}}`},
		{"false", NewBool(false), `false`},
		{"min int", NewInt(math.MinInt64), `-9223372036854775808`},
		{"negative zero", NewDouble(math.Copysign(0, -1)), `-0.0`},
	} {
		if got := tc.v.String(); got != tc.want {
			t.Errorf("%s: String() = %.80q, want %.80q", tc.name, got, tc.want)
		}
		enc := Encode(tc.v)
		back, n, err := Decode(enc)
		if err != nil || n != len(enc) {
			t.Fatalf("%s: Decode = %v after %d of %d bytes", tc.name, err, n, len(enc))
		}
		if !bytes.Equal(Encode(back), enc) || Compare(tc.v, back) != 0 || Hash(tc.v) != Hash(back) {
			t.Errorf("%s: round trip gives %v", tc.name, back)
		}
		if k := tc.v.Kind(); k == KindList || k == KindBag {
			if e := tc.v.Elems(); len(e) != cap(e) {
				t.Errorf("%s: Elems() has len %d, cap %d", tc.name, len(e), cap(e))
			}
		}
	}

	if e := NewList(nil).Elems(); e != nil {
		t.Errorf("NewList(nil).Elems() = %#v, want nil", e)
	}
	if e := NewList([]Value{}).Elems(); e == nil || len(e) != 0 {
		t.Errorf("NewList([]Value{}).Elems() = %#v, want empty and non-nil", e)
	}
	if got := NewString(long[3:14]).Str(); got != long[3:14] {
		t.Errorf("substring Str() = %q", got)
	}
	if got := NewRecord(outer).Rec(); got != outer {
		t.Errorf("Rec() = %p, want %p", got, outer)
	}

	// A list over the front of a longer array: an append onto its
	// elements must copy, never write into the array behind the list.
	backing := make([]Value, 2, 8)
	backing[0], backing[1] = NewInt(1), NewInt(2)
	grown := append(NewList(backing).Elems(), NewInt(3))
	if &grown[0] == &backing[0] || !backing[:3][2].IsNull() {
		t.Error("append onto Elems() wrote into the list's backing array")
	}
}

// FuzzValueCodec decodes arbitrary bytes. Every value Decode accepts must
// re-encode to a fixed point, compare equal to and hash like its decoded
// encoding, and, for two scalars, order its ordered keys as Compare does.
// Decode accepts some non-canonical inputs (a bool byte other than 0 or
// 1, an overlong varint, a record with a repeated field name), so the
// fixed point is Encode(v), not the input bytes.
func FuzzValueCodec(f *testing.F) {
	rec := EmptyRecord(3)
	rec.Set("id", NewInt(42))
	rec.Set("txt", NewString("hello world"))
	rec.Set("tags", NewBag([]Value{NewString("a"), NewDouble(math.NaN())}))
	f.Add(Encode(NewRecord(rec)))
	f.Add(append(Encode(NewInt(-3)), Encode(NewDouble(-3))...))
	f.Add(append(Encode(NewString("ab")), Encode(NewString("a\x00"))...))
	f.Add(Encode(NewList([]Value{Null, NewBool(true)})))
	f.Add([]byte{byte(KindList), 0xFF, 0xFF, 0xFF, 0xFF, 0x7F})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		a, n, err := Decode(data)
		if err != nil {
			return
		}
		enc := Encode(a)
		if len(enc) != EncodedSize(a) {
			t.Fatalf("EncodedSize(%v) = %d, encoding has %d bytes", a, EncodedSize(a), len(enc))
		}
		back, m, err := Decode(enc)
		if err != nil || m != len(enc) {
			t.Fatalf("Decode(Encode(%v)) = %v after %d of %d bytes", a, err, m, len(enc))
		}
		if again := Encode(back); !bytes.Equal(again, enc) {
			t.Fatalf("re-encoding changed the bytes:\n got %x\nwant %x", again, enc)
		}
		if Compare(a, back) != 0 || Hash(a) != Hash(back) {
			t.Fatalf("%v decodes from its encoding as %v (hash %x, %x)", a, back, Hash(a), Hash(back))
		}
		b, _, err := Decode(data[n:])
		if err != nil || !scalar(a) || !scalar(b) {
			return
		}
		want, got := Compare(a, b), sign(bytes.Compare(OrderedKey(a), OrderedKey(b)))
		// Numerics are keyed by their float64 image: two int64s beyond
		// ±2^53 that round to one double share a key, but never invert.
		if got != want && !(got == 0 && (inexactInt(a) || inexactInt(b))) {
			t.Fatalf("Compare(%v, %v) = %d, ordered keys compare %d", a, b, want, got)
		}
	})
}

func scalar(v Value) bool { return v.Kind() < KindList }

func inexactInt(v Value) bool {
	return v.Kind() == KindInt && (v.Int() > 1<<53 || v.Int() < -1<<53)
}
