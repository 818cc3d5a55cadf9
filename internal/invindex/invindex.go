// Package invindex implements SimDB's LSM-based secondary inverted
// indexes — the "keyword" and "n-gram" index types of the paper — and
// the T-occurrence list-merging algorithms (ScanCount, MergeSkip,
// DivideSkip from Li et al., cited by the paper) that turn posting
// lists into candidate primary keys.
//
// The index is token-agnostic: callers tokenize field values (word
// tokens for keyword indexes, padded n-grams for n-gram indexes) and
// the index stores one entry per (token, record) pair, keyed by the
// order-preserving concatenation of the token, the record's token count
// and its primary key. A posting list is the key range of one token's
// prefix, read through a seekable storage cursor, and a search bounded
// by a similarity predicate reads only the token counts it admits.
// Everything sits on the same LSM component/page/buffer-cache substrate
// as the primary index.
package invindex

import (
	"fmt"
	"slices"
	"strings"

	"simdb/internal/adm"
	"simdb/internal/obs"
	"simdb/internal/sim"
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

// An entry key is token ‖ len ‖ pk: the token's ordered encoding,
// which is self-terminating, one byte of the record's token count, and
// the primary key. All entries of one token are contiguous in token
// order, and inside them a posting list is ordered by (len, pk), so a
// search reads only the lengths its similarity bound admits, and the
// same len ‖ pk — a posting's id — names the record in every one of
// its lists. len is the number of entries EntryKeys writes for the
// record: its counted tokens, the multiset size the similarity
// functions count. Counts of lengthBucket and above share the byte
// lengthBucket, which a search reads as "lengthBucket or more".
const lengthBucket = 255

// lengthByte is the key byte of a record with n tokens.
func lengthByte(n int) byte { return byte(min(n, lengthBucket)) }

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

// Insert adds the record's entries: one per distinct token. Duplicate
// tokens within one call collapse to a single entry, matching the
// set-of-counted-tokens semantics of the T-occurrence bound. All
// entries are applied under one tree lock acquisition.
func (ix *Index) Insert(tokens []string, pk PK) error {
	return ix.tree.PutMulti(ix.EntryKeys(tokens, pk), nil)
}

// EntryKeys returns the entry keys Insert would write: token ‖ len ‖ pk
// for every distinct token, len being their number. The ingestion
// pipeline uses them to commit a record's postings atomically with its
// primary row via storage.CommitGroups, and the bulk build sorts them.
// The keys share one buffer.
func (ix *Index) EntryKeys(tokens []string, pk PK) [][]byte {
	toks := make([]string, 0, len(tokens))
	seen := make(map[string]struct{}, len(tokens))
	size := 0
	for _, tok := range tokens {
		if _, dup := seen[tok]; dup {
			continue
		}
		seen[tok] = struct{}{}
		toks = append(toks, tok)
		size += len(tok) + 4 + 1 + len(pk)
	}
	l := lengthByte(len(toks))
	keys := make([][]byte, len(toks))
	buf := make([]byte, 0, size)
	for i, tok := range toks {
		n := len(buf)
		buf = adm.AppendOrderedKey(buf, adm.NewString(tok))
		buf = append(append(buf, l), pk...)
		keys[i] = buf[n:len(buf):len(buf)]
	}
	return keys
}

// Tree exposes the underlying LSM tree for cross-tree atomic commits.
func (ix *Index) Tree() *storage.LSMTree { return ix.tree }

// Remove deletes the entries Insert wrote for the same tokens.
func (ix *Index) Remove(tokens []string, pk PK) error {
	for _, key := range ix.EntryKeys(tokens, pk) {
		if err := ix.tree.Delete(key); err != nil {
			return err
		}
	}
	return nil
}

// BulkLoad streams entry keys, as EntryKeys makes them, into a single
// component. Keys must arrive sorted with no duplicates; the index must
// be empty.
func (ix *Index) BulkLoad(next func() (key []byte, ok bool, err error)) error {
	return ix.tree.BulkLoad(func() ([]byte, []byte, bool, error) {
		key, ok, err := next()
		return key, nil, ok, err
	})
}

// Flush forces the in-memory component to disk.
func (ix *Index) Flush() error { return ix.tree.Flush() }

// Quiesce blocks until the index's tree has no pending background
// maintenance (flushes drained, merge policy satisfied).
func (ix *Index) Quiesce() error { return ix.tree.Quiesce() }

// Stats exposes the underlying LSM stats (component count, disk bytes).
func (ix *Index) Stats() storage.Stats { return ix.tree.Stats() }

// Postings returns the sorted primary keys containing token: every
// length's, a record written with several token counts once.
func (ix *Index) Postings(token string) ([]PK, error) {
	prefix := tokenPrefix(token)
	var out []PK
	err := ix.tree.Scan(prefix, prefixEnd(prefix), func(k, _ []byte) bool {
		out = append(out, PK(k[len(prefix)+1:]))
		return true
	})
	slices.Sort(out)
	return slices.Compact(out), err
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

// ParseAlgorithm returns the algorithm a configuration names:
// "divideskip", "mergeskip" or "scancount", in any letter case, so
// String's names parse too.
func ParseAlgorithm(name string) (Algorithm, error) {
	for _, a := range []Algorithm{DivideSkip, MergeSkip, ScanCount} {
		if strings.EqualFold(name, a.String()) {
			return a, nil
		}
	}
	return 0, fmt.Errorf("invindex: unknown T-occurrence algorithm %q (want divideskip, mergeskip or scancount)", name)
}

// Cursor work, summed over every search: seeks / searches and pages /
// searches explain a moved invindex.postings_per_query from /metrics.
// pruned counts the ids the count filter dropped (SearchStats.Pruned).
var (
	cursorSeeks = obs.C("invindex.cursor.seeks")
	cursorPages = obs.C("invindex.cursor.pages")
	prunedIDs   = obs.C("invindex.pruned")
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
	T            int // the occurrence threshold: the bounds' Need(Lo)
	Candidates   int // candidates produced
	// Pruned counts the ids the search saw reach the threshold T =
	// Need(Lo) and then dropped because they fell short of Need(len).
	// A skipping solver stops counting an id once Need(len) is out of
	// reach, so under MergeSkip and DivideSkip it is a lower bound.
	Pruned int
}

// Search returns the primary keys occurring on the posting lists of at
// least t of the query tokens (duplicates collapse), in sorted order:
// SearchBounded under sim.CountBounds(t).
func (ix *Index) Search(tokens []string, t int, algo Algorithm) ([]PK, SearchStats, error) {
	return ix.SearchBounded(tokens, sim.CountBounds(t), algo)
}

// SearchBounded returns, in sorted order, the primary keys of the
// records whose token count l lies in [b.Lo, b.Hi] and that occur on
// the posting lists of at least b.Need(l) of the distinct query tokens.
// Each token's list is read through one seekable cursor over the
// token's entries of those lengths only, all cursors opened on one
// refcounted tree snapshot, so every token sees the same index version
// even while concurrent inserts, flushes, or merges run, and a skipping
// solver never decodes the pages it jumps over. The threshold T =
// b.Need(b.Lo) must be positive: T <= 0 is the paper's corner case,
// where the index cannot prune and the caller must fall back to a
// scan-based plan. A T above the number of distinct tokens has no
// answer and is decided before the index is touched.
//
// A record overwritten with a different token count keeps its old
// postings (ingest does not remove them), under its old length: they
// can only add to some id's count, so the bounds still never drop a
// record that satisfies the predicate, and the caller verifies.
func (ix *Index) SearchBounded(tokens []string, b sim.Bounds, algo Algorithm) ([]PK, SearchStats, error) {
	var stats SearchStats
	lo, hi := lengthByte(b.Lo), lengthByte(b.Hi)
	th := newThreshold(b, lo)
	stats.T = th.min
	if th.min <= 0 {
		return nil, stats, fmt.Errorf("invindex: non-positive occurrence threshold %d (corner case: use a scan)", th.min)
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
	if th.min > len(toks) || b.Lo > b.Hi {
		return nil, stats, nil // cannot possibly reach T occurrences
	}

	// One buffer holds every token's range: token ‖ lo to token ‖ hi+1,
	// or to the token's end when the range reaches the last length byte.
	// That is twice the token and its tag and terminator bytes and a
	// length byte, more if a token needs escaping, and append grows it
	// then.
	ranges := make([]storage.KeyRange, len(toks))
	size := 0
	for _, tok := range toks {
		size += 2 * (len(tok) + 5)
	}
	buf := make([]byte, 0, size)
	for i, tok := range toks {
		n := len(buf)
		buf = adm.AppendOrderedKey(buf, adm.NewString(tok))
		prefix := len(buf) - n
		buf = append(buf, lo)
		ranges[i].Start = buf[n:len(buf):len(buf)]
		n = len(buf)
		buf = append(buf, ranges[i].Start[:prefix]...)
		if hi < lengthBucket {
			buf = append(buf, hi+1)
			ranges[i].End = buf[n:len(buf):len(buf)]
		} else {
			ranges[i].End = prefixEndInPlace(buf[n:len(buf):len(buf)])
		}
	}
	snap := ix.tree.Snapshot()
	cursors := snap.Cursors(ranges)
	snap.Close() // the cursors hold their own component references
	trees := make([]treePostings, len(cursors))
	lists := make([]postings, len(cursors))
	for i, c := range cursors {
		p := &trees[i]
		p.cur, p.prefix = c, len(ranges[i].Start)-1
		p.seek = append(p.room[:0], ranges[i].Start[:p.prefix]...)
		lists[i] = p
	}
	ids, pruned := solve(lists, &th, algo)
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
	// An id is len ‖ pk: stripping the length leaves pks sorted within
	// each length, and a record with postings under two lengths once.
	for i, id := range ids {
		ids[i] = id[1:]
	}
	slices.Sort(ids)
	ids = slices.Compact(ids)
	stats.Candidates = len(ids)
	stats.Pruned = pruned
	prunedIDs.Add(int64(pruned))
	return ids, stats, nil
}

// ScanCountMerge, MergeSkipMerge, and DivideSkipMerge run the
// T-occurrence solvers over in-memory posting lists of plain primary
// keys (for benchmarks and algorithm comparisons outside an index).
func ScanCountMerge(lists [][]PK, t int) []PK  { return solveFlat(lists, t, ScanCount) }
func MergeSkipMerge(lists [][]PK, t int) []PK  { return solveFlat(lists, t, MergeSkip) }
func DivideSkipMerge(lists [][]PK, t int) []PK { return solveFlat(lists, t, DivideSkip) }

func solveFlat(lists [][]PK, t int, algo Algorithm) []PK {
	th := newThreshold(sim.CountBounds(t), 0)
	ids, _ := solve(slicePostings(lists), &th, algo)
	return ids
}
