package adm

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// randValue builds a random ADM value with bounded depth.
func randValue(r *rand.Rand, depth int) Value {
	kinds := 5
	if depth > 0 {
		kinds = 7
	}
	switch r.Intn(kinds) {
	case 0:
		return Null
	case 1:
		return NewBool(r.Intn(2) == 0)
	case 2:
		return NewInt(r.Int63() - r.Int63())
	case 3:
		return NewDouble(r.NormFloat64())
	case 4:
		return NewString(randString(r))
	case 5:
		elems := make([]Value, r.Intn(4))
		for i := range elems {
			elems[i] = randValue(r, depth-1)
		}
		return NewList(elems)
	default:
		return NewRecord(randRecord(r, depth-1))
	}
}

func randString(r *rand.Rand) string {
	b := make([]byte, r.Intn(12))
	for i := range b {
		b[i] = byte('a' + r.Intn(26))
	}
	return string(b)
}

func randRecord(r *rand.Rand, depth int) *Record {
	rec := EmptyRecord(4)
	n := r.Intn(6)
	for i := 0; i < n; i++ {
		rec.Set(fmt.Sprintf("f%d_%s", i, randString(r)), randValue(r, depth))
	}
	return rec
}

// TestSplitRecordRoundTrip: splitting and reassembling any encoded
// record must reproduce the input byte for byte, and the raw field
// values must decode to the original field values.
func TestSplitRecordRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		rec := randRecord(r, 3)
		enc := Encode(NewRecord(rec))
		fields, ok := SplitRecord(enc)
		if !ok {
			t.Fatalf("SplitRecord rejected a well-formed record: %s", NewRecord(rec))
		}
		if len(fields) != rec.Len() {
			t.Fatalf("split %d fields, record has %d", len(fields), rec.Len())
		}
		if got := RawRecordSize(fields); got != len(enc) {
			t.Fatalf("RawRecordSize = %d, encoded length %d", got, len(enc))
		}
		back := AppendRecordFromRaw(nil, fields)
		if !bytes.Equal(back, enc) {
			t.Fatalf("reassembly differs:\n got %x\nwant %x", back, enc)
		}
		for j, f := range fields {
			name, want := rec.FieldAt(j)
			if string(f.Name) != name {
				t.Fatalf("field %d name %q, want %q", j, f.Name, name)
			}
			got := MustDecode(f.Val)
			if got.String() != want.String() {
				t.Fatalf("field %q decodes to %s, want %s", name, got, want)
			}
		}
	}
}

// TestSplitRecordRejects: non-records, truncation, trailing bytes, and
// non-canonical skeleton varints must all come back not-ok.
func TestSplitRecordRejects(t *testing.T) {
	if _, ok := SplitRecord(nil); ok {
		t.Error("accepted empty buffer")
	}
	if _, ok := SplitRecord(Encode(NewInt(7))); ok {
		t.Error("accepted a non-record")
	}
	rec := EmptyRecord(1)
	rec.Set("a", NewString("hello"))
	enc := Encode(NewRecord(rec))
	if _, ok := SplitRecord(enc[:len(enc)-2]); ok {
		t.Error("accepted a truncated record")
	}
	if _, ok := SplitRecord(append(append([]byte(nil), enc...), 0)); ok {
		t.Error("accepted trailing bytes")
	}
	// Re-encode the field count 1 as the two-byte varint 0x81 0x00: the
	// bytes still decode to the same record, but reassembly could not
	// reproduce them, so the split must refuse.
	sloppy := append([]byte{enc[0], 0x81, 0x00}, enc[2:]...)
	if v, n, err := Decode(sloppy); err != nil || n != len(sloppy) || v.String() != NewRecord(rec).String() {
		t.Fatalf("test setup: sloppy encoding did not decode cleanly: %v %d %v", v, n, err)
	}
	if _, ok := SplitRecord(sloppy); ok {
		t.Error("accepted a non-canonical field-count varint")
	}
}

// TestDecodeRecordProjected: the projected decode must keep exactly the
// requested fields with their original values and skip everything else.
func TestDecodeRecordProjected(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for i := 0; i < 300; i++ {
		rec := randRecord(r, 3)
		enc := Encode(NewRecord(rec))
		keep := KeepSet{}
		for j := 0; j < rec.Len(); j++ {
			if name, _ := rec.FieldAt(j); r.Intn(2) == 0 {
				keep[name] = name
			}
		}
		got, ok := DecodeRecordProjected(enc, keep)
		if !ok {
			t.Fatalf("projected decode rejected a well-formed record")
		}
		want := EmptyRecord(len(keep))
		for j := 0; j < rec.Len(); j++ {
			name, v := rec.FieldAt(j)
			if _, kept := keep[name]; kept {
				want.Set(name, v)
			}
		}
		if got.String() != NewRecord(want).String() {
			t.Fatalf("projected %s, want %s (keep %v of %s)", got, NewRecord(want), keep, NewRecord(rec))
		}
	}
	if _, ok := DecodeRecordProjected(Encode(NewString("x")), NewKeepSet([]string{"a"})); ok {
		t.Error("projected decode accepted a non-record")
	}
}

// TestRawFieldValue: on any well-formed record the raw lookup returns
// the encoding of the value Decode would give the field — the last one
// of that name — and is not ok for an absent field; RawString of it is
// the string exactly when the value is one. On a truncated or corrupted
// record it never finds a field Decode would reject, and never panics.
func TestRawFieldValue(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	for i := 0; i < 500; i++ {
		rec := randRecord(r, 2)
		enc := Encode(NewRecord(rec))
		names := append([]string{"absent"}, rec.Names()...)
		for _, name := range names {
			want, present := rec.Get(name)
			got, ok := RawFieldValue(enc, name)
			if ok != present || (ok && !bytes.Equal(got, Encode(want))) {
				t.Fatalf("RawFieldValue(%s, %q) = %x, %v; record has %v, %v", NewRecord(rec), name, got, ok, want, present)
			}
			s, isStr := RawString(got)
			if isStr != (present && want.Kind() == KindString) || (isStr && string(s) != want.Str()) {
				t.Fatalf("RawString(%x) = %q, %v; field %q is %v", got, s, isStr, name, want)
			}
		}
		// Damage: a field found in a record Decode rejects would let a
		// filter drop a row whose decode must fail the query.
		for _, name := range names {
			cut := enc[:r.Intn(len(enc)+1)]
			if _, ok := RawFieldValue(cut, name); ok {
				if _, _, err := Decode(cut); err != nil {
					t.Fatalf("RawFieldValue found %q in a record Decode rejects: %v", name, err)
				}
			}
		}
	}
	// A repeated name resolves like Decode does: the last one wins.
	dup := AppendRecordFromRaw(nil, []RawField{
		{Name: []byte("f"), Val: Encode(NewString("first"))},
		{Name: []byte("f"), Val: Encode(NewInt(1))},
	})
	if v, ok := RawFieldValue(dup, "f"); !ok || !bytes.Equal(v, Encode(NewInt(1))) {
		t.Errorf("repeated name ending in an int: got %x, %v", v, ok)
	}
	dup = AppendRecordFromRaw(nil, []RawField{
		{Name: []byte("f"), Val: Encode(NewInt(1))},
		{Name: []byte("f"), Val: Encode(NewString("last"))},
	})
	if v, ok := RawFieldValue(dup, "f"); !ok || !bytes.Equal(v, Encode(NewString("last"))) {
		t.Errorf("repeated name ending in a string: got %x, %v", v, ok)
	}
	if _, ok := RawFieldValue(Encode(NewString("x")), "f"); ok {
		t.Error("found a field in a non-record")
	}
	for _, v := range [][]byte{nil, {byte(KindString)}, {byte(KindString), 5, 'a'}, Encode(NewInt(3))} {
		if s, ok := RawString(v); ok {
			t.Errorf("RawString(%x) = %q, want not ok", v, s)
		}
	}
}

// FuzzSplitRecord: the splitter and skipper must never panic and the
// accept path must guarantee byte-identical reassembly on arbitrary
// input.
func FuzzSplitRecord(f *testing.F) {
	rec := EmptyRecord(2)
	rec.Set("id", NewInt(42))
	rec.Set("txt", NewString("hello world"))
	f.Add(Encode(NewRecord(rec)))
	f.Add(Encode(NewInt(-1)))
	f.Add([]byte{byte(KindRecord), 0xFF, 0xFF, 0xFF, 0xFF, 0x7F})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		// The raw field lookup runs on whatever a scan reads, before any
		// decode: it must not panic, and a string it finds must be the
		// one a full decode finds.
		if val, ok := RawFieldValue(data, "txt"); ok {
			v, _, err := Decode(data)
			if err != nil {
				t.Fatalf("RawFieldValue found txt in a record Decode rejects: %v", err)
			}
			f, _ := v.Rec().Get("txt")
			if got, _, err := Decode(val); err != nil || got.String() != f.String() {
				t.Fatalf("RawFieldValue found txt = %x (%v), Decode has %v", val, err, f)
			}
			if s, ok := RawString(val); ok != (f.Kind() == KindString) || ok && string(s) != f.Str() {
				t.Fatalf("RawString(%x) = %q, %v; Decode has %v", val, s, ok, f)
			}
		}
		fields, ok := SplitRecord(data)
		if !ok {
			return
		}
		back := AppendRecordFromRaw(nil, fields)
		if !bytes.Equal(back, data) {
			t.Fatalf("accepted input does not round-trip:\n got %x\nwant %x", back, data)
		}
		if _, ok := DecodeRecordProjected(data, KeepSet{}); !ok {
			// A splittable record must at minimum project to empty; a
			// mismatch between the two walkers would corrupt scans.
			t.Fatalf("splittable record failed projected decode")
		}
	})
}
