// Package invindex implements SimDB's LSM-based secondary inverted
// indexes — the "keyword" and "n-gram" index types of the paper — and
// the T-occurrence list-merging algorithms (ScanCount, MergeSkip,
// DivideSkip from Li et al., cited by the paper) that turn posting
// lists into candidate primary keys.
//
// The index is token-agnostic: callers tokenize field values (word
// tokens for keyword indexes, padded n-grams for n-gram indexes) and
// the index stores one entry per (token, primaryKey) pair, keyed by the
// order-preserving concatenation of the two. A posting list is the key
// range of one token's prefix, read through a seekable storage cursor.
// Everything sits on the same LSM component/page/bloom/buffer-cache
// substrate as the primary index.
package invindex

import (
	"fmt"
	"slices"

	"simdb/internal/adm"
	"simdb/internal/obs"
	"simdb/internal/storage"
)

// PK is an encoded primary key (an adm ordered-key byte string). Using
// the string type keeps comparisons and map keying cheap.
type PK = string

// Index is one partition's inverted index.
type Index struct {
	tree *storage.LSMTree
}

// Open opens (or creates) the index stored in dir.
func Open(dir string, opts storage.LSMOptions) (*Index, error) {
	tree, err := storage.OpenLSM(dir, opts)
	if err != nil {
		return nil, fmt.Errorf("invindex: %w", err)
	}
	return &Index{tree: tree}, nil
}

// Close flushes and closes the underlying tree.
func (ix *Index) Close() error { return ix.tree.Close() }

// entryKey builds the composite (token, pk) key. The token's ordered
// encoding is self-terminating, so the concatenation groups all entries
// of one token contiguously in token order.
func entryKey(token string, pk PK) []byte {
	k := adm.AppendOrderedKey(nil, adm.NewString(token))
	return append(k, pk...)
}

// tokenPrefix returns the key prefix shared by every entry of token.
func tokenPrefix(token string) []byte {
	return adm.AppendOrderedKey(nil, adm.NewString(token))
}

// prefixEnd returns the smallest key greater than every key starting
// with prefix.
func prefixEnd(prefix []byte) []byte {
	return prefixEndInPlace(append([]byte(nil), prefix...))
}

// prefixEndInPlace is prefixEnd overwriting its argument.
func prefixEndInPlace(end []byte) []byte {
	for i := len(end) - 1; i >= 0; i-- {
		if end[i] != 0xFF {
			end[i]++
			return end[:i+1]
		}
	}
	return nil // all 0xFF: scan to the end
}

// Insert adds (token, pk) entries for every distinct token. Duplicate
// tokens within one call collapse to a single entry, matching the
// set-of-grams semantics of the T-occurrence bound. All entries are
// applied under one tree lock acquisition.
func (ix *Index) Insert(tokens []string, pk PK) error {
	return ix.tree.PutMulti(ix.EntryKeys(tokens, pk), nil)
}

// EntryKeys returns the deduplicated composite (token, pk) entry keys
// Insert would write — the ingestion pipeline uses them to commit a
// record's postings atomically with its primary row via
// storage.CommitGroups.
func (ix *Index) EntryKeys(tokens []string, pk PK) [][]byte {
	keys := make([][]byte, 0, len(tokens))
	seen := make(map[string]struct{}, len(tokens))
	for _, tok := range tokens {
		if _, dup := seen[tok]; dup {
			continue
		}
		seen[tok] = struct{}{}
		keys = append(keys, entryKey(tok, pk))
	}
	return keys
}

// Tree exposes the underlying LSM tree for cross-tree atomic commits.
func (ix *Index) Tree() *storage.LSMTree { return ix.tree }

// Remove deletes the (token, pk) entries for the given tokens.
func (ix *Index) Remove(tokens []string, pk PK) error {
	for _, key := range ix.EntryKeys(tokens, pk) {
		if err := ix.tree.Delete(key); err != nil {
			return err
		}
	}
	return nil
}

// BulkLoad streams pre-sorted (token, pk) pairs into a single
// component. Pairs must arrive sorted by (token, pk) with no
// duplicates; the index must be empty.
func (ix *Index) BulkLoad(next func() (token string, pk PK, ok bool, err error)) error {
	return ix.tree.BulkLoad(func() ([]byte, []byte, bool, error) {
		tok, pk, ok, err := next()
		if !ok || err != nil {
			return nil, nil, false, err
		}
		return entryKey(tok, pk), nil, true, nil
	})
}

// Flush forces the in-memory component to disk.
func (ix *Index) Flush() error { return ix.tree.Flush() }

// Quiesce blocks until the index's tree has no pending background
// maintenance (flushes drained, merge policy satisfied).
func (ix *Index) Quiesce() error { return ix.tree.Quiesce() }

// Stats exposes the underlying LSM stats (component count, disk bytes).
func (ix *Index) Stats() storage.Stats { return ix.tree.Stats() }

// Postings returns the sorted primary keys containing token.
func (ix *Index) Postings(token string) ([]PK, error) {
	prefix := tokenPrefix(token)
	var out []PK
	err := ix.tree.Scan(prefix, prefixEnd(prefix), func(k, _ []byte) bool {
		out = append(out, PK(k[len(prefix):]))
		return true
	})
	return out, err
}

// Algorithm selects the T-occurrence list-merging algorithm. The zero
// value is the default solver.
type Algorithm int

// The available T-occurrence algorithms.
const (
	DivideSkip Algorithm = iota
	MergeSkip
	ScanCount
)

// String names the algorithm.
func (a Algorithm) String() string {
	switch a {
	case ScanCount:
		return "ScanCount"
	case MergeSkip:
		return "MergeSkip"
	case DivideSkip:
		return "DivideSkip"
	}
	return fmt.Sprintf("Algorithm(%d)", int(a))
}

// Cursor work, summed over every search: seeks / searches and pages /
// searches explain a moved invindex.postings_per_query from /metrics.
var (
	cursorSeeks = obs.C("invindex.cursor.seeks")
	cursorPages = obs.C("invindex.cursor.pages")
)

// SearchStats reports the work a T-occurrence search performed.
type SearchStats struct {
	Lists int // posting cursors opened: the distinct query tokens
	// PostingsRead counts the postings actually decoded, each once: the
	// ones a solver stopped on and the ones a seek's search of a page
	// compared and moved past (storage.CursorStats.Entries). Postings
	// skipped by a fence-key jump or between two probes of a search, left
	// unread behind the last candidate, or never reached because the
	// search ended early are not in it, so the number depends on the
	// solver.
	PostingsRead int64
	Candidates   int // candidates produced
}

// Search returns the primary keys occurring on the posting lists of at
// least T of the query tokens (duplicates collapse), in sorted order.
// Each distinct token is read through one seekable cursor, all opened on
// one refcounted tree snapshot, so every token sees the same index
// version even while concurrent inserts, flushes, or merges run, and a
// skipping solver never decodes the pages it jumps over. T must be
// positive: a T <= 0 query is the paper's corner case, where the index
// cannot prune and the caller must fall back to a scan-based plan. A
// T above the number of distinct tokens has no answer and is decided
// before the index is touched.
func (ix *Index) Search(tokens []string, t int, algo Algorithm) ([]PK, SearchStats, error) {
	var stats SearchStats
	if t <= 0 {
		return nil, stats, fmt.Errorf("invindex: non-positive occurrence threshold %d (corner case: use a scan)", t)
	}
	if algo != ScanCount && algo != MergeSkip && algo != DivideSkip {
		return nil, stats, fmt.Errorf("invindex: unknown algorithm %v", algo)
	}
	// Sorted distinct tokens are sorted disjoint key ranges: the ordered
	// encoding preserves string order and is self-terminating.
	toks := slices.Clone(tokens)
	slices.Sort(toks)
	toks = slices.Compact(toks)
	stats.Lists = len(toks)
	if t > len(toks) {
		return nil, stats, nil // cannot possibly reach T occurrences
	}

	// One buffer holds every token's prefix and range end: twice the
	// token and its tag and terminator bytes, more if a token needs
	// escaping, and append grows it then.
	ranges := make([]storage.KeyRange, len(toks))
	size := 0
	for _, tok := range toks {
		size += 2 * (len(tok) + 4)
	}
	buf := make([]byte, 0, size)
	for i, tok := range toks {
		n := len(buf)
		buf = adm.AppendOrderedKey(buf, adm.NewString(tok))
		ranges[i].Start = buf[n:len(buf):len(buf)]
		n = len(buf)
		buf = append(buf, ranges[i].Start...)
		ranges[i].End = prefixEndInPlace(buf[n:len(buf):len(buf)])
	}
	snap := ix.tree.Snapshot()
	cursors := snap.Cursors(ranges)
	snap.Close() // the cursors hold their own component references
	trees := make([]treePostings, len(cursors))
	lists := make([]postings, len(cursors))
	for i, c := range cursors {
		trees[i] = treePostings{cur: c, prefix: ranges[i].Start}
		lists[i] = &trees[i]
	}
	cands := solve(lists, t, algo)
	var err error
	for _, c := range cursors {
		st := c.Stats()
		stats.PostingsRead += st.Entries
		cursorSeeks.Add(st.Seeks)
		cursorPages.Add(st.Pages)
		if err == nil {
			err = c.Err()
		}
		c.Close()
	}
	if err != nil {
		// A cursor that failed looks like a list that ended: the
		// candidates are short, not wrong, and are not returned.
		return nil, stats, fmt.Errorf("invindex: %w", err)
	}
	stats.Candidates = len(cands)
	return cands, stats, nil
}

// ScanCountMerge, MergeSkipMerge, and DivideSkipMerge run the
// T-occurrence solvers over in-memory posting lists (for benchmarks and
// algorithm comparisons outside an index).
func ScanCountMerge(lists [][]PK, t int) []PK  { return solve(slicePostings(lists), t, ScanCount) }
func MergeSkipMerge(lists [][]PK, t int) []PK  { return solve(slicePostings(lists), t, MergeSkip) }
func DivideSkipMerge(lists [][]PK, t int) []PK { return solve(slicePostings(lists), t, DivideSkip) }
