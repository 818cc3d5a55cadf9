package oracle

import (
	"reflect"
	"testing"

	"simdb/benchmark/gen"
)

func TestJaccardAtLeast(t *testing.T) {
	for _, c := range []struct {
		a, b     string
		num, den int
		want     bool
	}{
		{"Good Product Value", "Nice Product", 1, 4, true}, // the paper's example: exactly 1/4
		{"Good Product Value", "Nice Product", 1, 2, false},
		{"a b c d", "a b c d e", 4, 5, true}, // 4/5 on the boundary
		{"a b c d", "a b c e", 4, 5, false},  // 3/5
		{"a b c d", "d c b a", 4, 5, true},   // order does not matter
		{"Great, great!", "great", 1, 2, true},
		{"", "", 1, 2, false}, // two empty sets are not similar
	} {
		if got := JaccardAtLeast(c.a, c.b, c.num, c.den); got != c.want {
			t.Errorf("JaccardAtLeast(%q, %q, %d/%d) = %v, want %v", c.a, c.b, c.num, c.den, got, c.want)
		}
	}
}

func TestEditDistance(t *testing.T) {
	for _, c := range []struct {
		a, b string
		want int
	}{
		{"", "", 0}, {"abc", "", 3}, {"", "ab", 2},
		{"kitten", "sitting", 3}, {"flaw", "lawn", 2},
		{"Maria", "maria", 1}, // case matters
		{"Böb", "Bob", 1},     // runes, not bytes
		{"same", "same", 0},
	} {
		if got := EditDistance(c.a, c.b); got != c.want {
			t.Errorf("EditDistance(%q, %q) = %d, want %d", c.a, c.b, got, c.want)
		}
		if got := EditDistance(c.b, c.a); got != c.want {
			t.Errorf("EditDistance(%q, %q) = %d, want %d", c.b, c.a, got, c.want)
		}
	}
}

func recs(rows ...[2]string) []gen.Record {
	out := make([]gen.Record, len(rows))
	for i, r := range rows {
		out[i] = gen.Record{ID: int64(i + 1), ReviewerName: r[0], Summary: r[1]}
	}
	return out
}

func TestSelect(t *testing.T) {
	tab := NewTable(recs(
		[2]string{"Ann Lee", "good cheap phone"},
		[2]string{"Ann Leo", "good cheap phone case"},
		[2]string{"Bob", "bad phone"},
		[2]string{"Anne Lee", "cheap good phone"},
	))
	for _, c := range []struct {
		q    gen.Query
		want []int64
	}{
		{gen.Query{Class: gen.Jaccard08, Const: "good cheap phone"}, []int64{1, 4}},
		{gen.Query{Class: gen.Jaccard05, Const: "good cheap phone"}, []int64{1, 2, 4}},
		{gen.Query{Class: gen.Ed1, Const: "Ann Lee"}, []int64{1, 2, 4}},
		{gen.Query{Class: gen.Ed2, Const: "Bo"}, []int64{3}},
		{gen.Query{Class: gen.Ed1, Const: "nobody"}, nil},
	} {
		if got := tab.Select(c.q); !reflect.DeepEqual(got, c.want) {
			t.Errorf("Select(%v) = %v, want %v", c.q, got, c.want)
		}
		for _, r := range tab.recs {
			in := false
			for _, id := range c.want {
				in = in || id == r.ID
			}
			if Matches(c.q, r) != in {
				t.Errorf("Matches(%v, record %d) = %v, want %v", c.q, r.ID, !in, in)
			}
		}
	}
}

func TestJoin(t *testing.T) {
	rows := make([][2]string, 12)
	for i := range rows {
		rows[i] = [2]string{"x", "filler number " + string(rune('a'+i))}
	}
	rows[0][1] = "red small box lid"
	rows[5][1] = "small red box lid"      // equal as a set to record 1
	rows[11][1] = "red small box lid top" // 4/5 with records 1 and 6
	tab := NewTable(recs(rows...))
	got := tab.Join(gen.Join{Start: 1})
	// The outer side is ids 1..10, each pair once with outer < inner.
	want := []Pair{{1, 6}, {1, 12}, {6, 12}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Join = %v, want %v", got, want)
	}
}
