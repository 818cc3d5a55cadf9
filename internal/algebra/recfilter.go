package algebra

import (
	"fmt"
	"strconv"

	"simdb/internal/adm"
	"simdb/internal/sim"
	"simdb/internal/tokenizer"
)

// RecordFilter is one similarity conjunct of the select directly above
// a record source, restated on the stored bytes of a top-level field:
//
//	similarity-jaccard(word-tokens($rec.Field), Tokens) >= Delta
//	edit-distance($rec.Field, Query) <= K
//
// The source evaluates it on each row's stored field value before
// decoding the row — a data scan hands it to storage, which judges a
// columnar group on its column block — and drops the rows it rejects.
// The select stays as it is and decides;
// the filter only has to be sound — it may reject a row only when the
// conjunct, evaluated on that row, is not true and raises no error. It
// therefore speaks only about rows whose field is a string: a missing
// or null field, a pre-tokenized list, a value word-tokens or
// edit-distance would raise on, and a record that does not decode all
// pass.
type RecordFilter struct {
	Field string
	// Jaccard selects the first form (Tokens, Delta > 0); otherwise the
	// second (Query, K).
	Jaccard bool
	Tokens  []string
	Delta   float64
	Query   string
	K       int
}

// String renders the filter for the source's plan line.
func (f *RecordFilter) String() string {
	if f.Jaccard {
		return fmt.Sprintf("similarity-jaccard(word-tokens(%s), %s) >= %s",
			f.Field, adm.NewStringList(f.Tokens), strconv.FormatFloat(f.Delta, 'g', -1, 64))
	}
	return fmt.Sprintf("edit-distance(%s, %s) <= %d", f.Field, strconv.Quote(f.Query), f.K)
}

// New compiles the filter for one operator instance into a check of the
// field's encoded value, tag byte first — a column value, or the field's
// bytes found in a record (storage.RowFilter.PassRecord). The query side
// is set up once; the check reads a string in place, tokenizes into
// scratch it owns, and decides with the length filter and early
// termination of the check builtins. A value that is not a string
// passes. A rejected value allocates nothing. The function is not safe
// for concurrent use. A nil filter compiles to a nil function.
func (f *RecordFilter) New() func(val []byte) bool {
	if f == nil {
		return nil
	}
	if f.Jaccard {
		checker := sim.NewJaccardChecker(f.Tokens)
		var scratch tokenizer.WordScratch
		return func(val []byte) bool {
			s, ok := adm.RawString(val)
			if !ok {
				return true
			}
			_, pass := checker.Check(scratch.WordTokens(s), f.Delta)
			return pass
		}
	}
	checker := sim.NewEditDistanceChecker(f.Query)
	return func(val []byte) bool {
		s, ok := adm.RawString(val)
		return !ok || checker.Check(s, f.K)
	}
}
