package storage

import (
	"fmt"
	"hash/crc32"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"simdb/internal/adm"
)

// uniformPropKeys is the key space of TestUniformWalkMatchesModelProperty:
// the oldest component holds every key in six groups.
const uniformPropKeys = 6 * colMaxGroupRows

// uniformPropRecord builds the entry of one row of a group written in
// style: 0 a record id, text, f; 1 the same fields in another order; 2
// one of the two orders at random; 3 id and text, no f; 4 anything —
// the record of style 0 or 2, a tombstone (nil), an opaque value, a
// record without f, a record with a field of its own (past the group's
// column cap these land in the overflow stream), or one whose field
// count is spelt in two bytes, which the writer stores opaque. Styles 0,
// 1 and 3 make uniform groups.
func uniformPropRecord(r *rand.Rand, style, row int) []byte {
	id := adm.NewInt(int64(row))
	text := adm.NewString(fmt.Sprintf("payload %d", r.Intn(40)))
	f := adm.NewString(fmt.Sprintf("w%d", r.Intn(30)))
	rec := adm.EmptyRecord(4)
	order := style
	if style == 2 || style == 4 {
		order = r.Intn(2)
	}
	switch order {
	case 0:
		rec.Set("id", id)
		rec.Set("text", text)
		rec.Set("f", f)
	case 1:
		rec.Set("text", text)
		rec.Set("f", f)
		rec.Set("id", id)
	case 3:
		rec.Set("id", id)
		rec.Set("text", text)
	}
	if style == 4 {
		switch r.Intn(8) {
		case 0:
			return nil
		case 1:
			return []byte(fmt.Sprintf("opaque %d", row))
		case 2:
			rec = adm.EmptyRecord(2)
			rec.Set("id", id)
			rec.Set("text", text)
		case 3:
			rec.Set(fmt.Sprintf("x%05d", row), adm.NewInt(int64(row)))
		case 4:
			v := adm.Encode(adm.NewRecord(rec))
			return append([]byte{v[0], v[1] | 0x80, 0}, v[2:]...)
		}
	}
	return adm.Encode(adm.NewRecord(rec))
}

// TestUniformWalkMatchesModelProperty: a filtered scan reads a uniform
// group column by column and any other group row by row; both must
// yield what the model does. Each tree has four components and a
// memtable over one key space, under a buffer cache smaller than one
// group, so nearly every block read goes into the walks' own buffers.
// The oldest component holds every key and each newer one about two in
// three, in four or five groups, so every group boundary of a newer
// component falls on a key an older one holds: stepping past a group's
// last key loads the next group while the older source still has to be
// stepped past that key, which is the key-lifetime rule of the walks'
// two buffer generations (a walk's buffers reach their size in its
// first groups; the later ones reuse them). Groups
// mix uniform rows, two field orders, tombstones, opaque entries,
// overflow fields and records without the filter field; the filters
// pass every row, none, and about two in three, on a column present in
// every record (text) and one some lack (f).
func TestUniformWalkMatchesModelProperty(t *testing.T) {
	passes := map[string]func([]byte) bool{
		"all":   func([]byte) bool { return true },
		"none":  func([]byte) bool { return false },
		"third": func(v []byte) bool { return crc32.ChecksumIEEE(v)%3 != 0 },
	}
	var uniformGroups, otherGroups int
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tree := newTestLSM(t, LSMOptions{MemBudgetBytes: 1 << 30, MaxComponents: 1000, Columnar: true,
			Cache: NewBufferCache(4<<10, 1<<10)})
		model := map[string][]byte{}
		write := func(k string, v []byte) {
			model[k] = v
			var err error
			if v == nil {
				err = tree.Delete([]byte(k))
			} else {
				err = tree.Put([]byte(k), v)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		for round := 0; round < 4; round++ {
			var keys []string
			for i := 0; i < uniformPropKeys; i++ {
				if round == 0 || r.Intn(3) != 0 {
					keys = append(keys, fmt.Sprintf("k%05d", i))
				}
			}
			sort.Strings(keys) // the order the component's groups cut them in
			styles := make([]int, len(keys)/colMaxGroupRows+1)
			for g := range styles {
				styles[g] = r.Intn(5)
			}
			for p, k := range keys {
				write(k, uniformPropRecord(r, styles[p/colMaxGroupRows], p))
			}
			if err := tree.Flush(); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 200; i++ {
			k := fmt.Sprintf("k%05d", r.Intn(uniformPropKeys))
			write(k, uniformPropRecord(r, 4, i))
		}

		snap := tree.Snapshot()
		defer snap.Close()
		if len(snap.components) < 4 {
			t.Fatalf("seed %d: %d components, want 4", seed, len(snap.components))
		}
		for _, field := range []string{"f", "text"} {
			for _, c := range snap.components {
				w := groupWalk{filter: &RowFilter{Field: field, Pass: passes["all"]}}
				for i := range c.groups {
					if err := w.load(c, i, nil); err != nil {
						t.Fatal(err)
					}
					if w.uniform {
						uniformGroups++
					} else {
						otherGroups++
					}
				}
			}
			live := int64(len(modelRange(model, nil, nil)))
			for name, pass := range passes {
				passing := map[string][]byte{}
				for k, v := range model {
					if v != nil && modelPasses(field, pass, v) {
						passing[k] = v
					}
				}
				for _, fields := range [][]string{nil, {"id"}, {"text", "f"}} {
					filter := &RowFilter{Field: field, Pass: pass}
					err := scanMatchesModel(passing, KeyRange{}, fields, func(fn func(k, v []byte) bool) error {
						read, err := snap.ScanProjected(nil, nil, nil, fields, filter, func(k, v []byte) bool {
							// The scan reuses the buffers behind both.
							return fn(append([]byte(nil), k...), append([]byte(nil), v...))
						})
						if err == nil && read != live {
							err = fmt.Errorf("read %d rows, %d are live", read, live)
						}
						return err
					})
					if err != nil {
						t.Logf("seed %d: filter %s on %s, fields %v: %v", seed, name, field, fields, err)
						return false
					}
				}
			}
		}
		if st := tree.opts.Cache.Stats(); st.Streamed == 0 {
			t.Logf("seed %d: no block read was streamed past the cache", seed)
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 4, Rand: rand.New(rand.NewSource(43))}); err != nil {
		t.Fatal(err)
	}
	t.Logf("%d uniform groups, %d others", uniformGroups, otherGroups)
	if uniformGroups == 0 || otherGroups == 0 {
		t.Fatal("the trees did not mix uniform groups with others")
	}
}
