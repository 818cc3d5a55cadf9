package adm

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"sort"
)

// FromJSON parses one JSON document into a Value. JSON numbers become
// int64 when they are integral and in range, double otherwise; JSON
// arrays become ordered lists; JSON objects become records with fields
// in the document's order. This is the loader used to import the
// synthetic datasets, mirroring how the paper imported raw JSON into
// AsterixDB without declaring field schemas.
func FromJSON(data []byte) (Value, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	var raw any
	if err := dec.Decode(&raw); err != nil {
		return Null, fmt.Errorf("adm: parse json: %w", err)
	}
	return fromAny(raw)
}

func fromAny(raw any) (Value, error) {
	switch x := raw.(type) {
	case nil:
		return Null, nil
	case bool:
		return NewBool(x), nil
	case json.Number:
		if i, err := x.Int64(); err == nil {
			return NewInt(i), nil
		}
		f, err := x.Float64()
		if err != nil {
			return Null, fmt.Errorf("adm: bad json number %q", x)
		}
		return NewDouble(f), nil
	case string:
		return NewString(x), nil
	case []any:
		elems := make([]Value, len(x))
		for i, e := range x {
			v, err := fromAny(e)
			if err != nil {
				return Null, err
			}
			elems[i] = v
		}
		return NewList(elems), nil
	case map[string]any:
		// encoding/json loses object field order; sort names so the
		// result is deterministic.
		names := make([]string, 0, len(x))
		for n := range x {
			names = append(names, n)
		}
		sort.Strings(names)
		rec := EmptyRecord(len(names))
		for _, n := range names {
			v, err := fromAny(x[n])
			if err != nil {
				return Null, err
			}
			rec.Set(n, v)
		}
		return NewRecord(rec), nil
	}
	return Null, fmt.Errorf("adm: unsupported json value %T", raw)
}

// ToJSONish converts the value to the nearest encoding/json-compatible
// Go value (bags become arrays). Used by the CLI to emit results.
func ToJSONish(v Value) any {
	switch v.kind {
	case KindNull:
		return nil
	case KindBool:
		return v.boolean()
	case KindInt:
		return v.integer()
	case KindDouble:
		f := v.double()
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return fmt.Sprint(f)
		}
		return f
	case KindString:
		return v.str()
	case KindList, KindBag:
		elems := v.elems()
		out := make([]any, len(elems))
		for i, e := range elems {
			out[i] = ToJSONish(e)
		}
		return out
	case KindRecord:
		r := v.rec()
		out := make(map[string]any, r.Len())
		for i := 0; i < r.Len(); i++ {
			n, fv := r.FieldAt(i)
			out[n] = ToJSONish(fv)
		}
		return out
	}
	return nil
}
