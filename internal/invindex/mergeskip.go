package invindex

import (
	"bytes"
	"math"
	"slices"

	"simdb/internal/sim"
	"simdb/internal/storage"
)

// ScanCount, MergeSkip and DivideSkip from "Efficient Merging and
// Filtering Algorithms for Approximate String Searches" (Li et al., ICDE
// 2008), the list-merging algorithms AsterixDB's inverted-index search
// uses to solve the T-occurrence problem. All three run over posting
// cursors: a skip that crosses a page never reads the pages in between,
// and a list the search is done with is not read to its end.

// postings is one token's posting list read forward in id order: an id
// is len ‖ pk in an index (a length byte and a primary key), a plain pk
// in an in-memory list. A list starts before its first posting: next or
// seekGE moves onto one. pk, the id, is valid while the list stays on a
// posting; the bytes stay valid after it moves on.
type postings interface {
	next() bool
	// seekGE moves forward to the first posting >= id; an id at or before
	// the current posting leaves the list where it is.
	seekGE(id []byte) bool
	pk() []byte
	// sizeHint estimates the list's length, exactly for a list that is
	// shorter than a page, reading no page but the one the list's first
	// move reads; only the order of the hints of one search's lists
	// matters.
	sizeHint() int64
}

// treePostings reads a token's postings through a storage cursor over
// the token's key range; a posting's id is the key minus the token
// prefix.
type treePostings struct {
	cur    *storage.Cursor
	prefix int      // the length of the token's key prefix
	seek   []byte   // scratch: the prefix, then the seek target
	room   [48]byte // seek's first backing array: a prefix and an id fit
}

func (p *treePostings) next() bool      { return p.cur.Next() }
func (p *treePostings) pk() []byte      { return p.cur.Key()[p.prefix:] }
func (p *treePostings) sizeHint() int64 { return p.cur.SizeHint() }

func (p *treePostings) seekGE(id []byte) bool {
	p.seek = append(p.seek[:p.prefix], id...)
	return p.cur.SeekGE(p.seek)
}

// memPostings is an in-memory posting list.
type memPostings struct {
	list [][]byte
	pos  int // -1 before the first posting
}

func (p *memPostings) pk() []byte      { return p.list[p.pos] }
func (p *memPostings) sizeHint() int64 { return int64(len(p.list)) }

func (p *memPostings) next() bool {
	if p.pos < len(p.list) {
		p.pos++
	}
	return p.pos < len(p.list)
}

func (p *memPostings) seekGE(pk []byte) bool {
	rest := p.list[max(p.pos, 0):]
	i, _ := slices.BinarySearchFunc(rest, pk, bytes.Compare)
	p.pos = len(p.list) - len(rest) + i
	return p.pos < len(p.list)
}

// slicePostings wraps sorted in-memory lists as posting lists.
func slicePostings(lists [][]PK) []postings {
	out := make([]postings, len(lists))
	for i, l := range lists {
		p := &memPostings{list: make([][]byte, len(l)), pos: -1}
		for j, pk := range l {
			p.list[j] = []byte(pk)
		}
		out[i] = p
	}
	return out
}

// frontier is a heap entry: a list and the posting it stands on.
type frontier struct {
	pk   []byte
	list postings
}

// frontierHeap is a binary min-heap ordered by pk.
type frontierHeap []frontier

func (h *frontierHeap) push(f frontier) {
	*h = append(*h, f)
	i := len(*h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if bytes.Compare((*h)[parent].pk, (*h)[i].pk) <= 0 {
			break
		}
		(*h)[parent], (*h)[i] = (*h)[i], (*h)[parent]
		i = parent
	}
}

// pop removes and returns the smallest frontier.
func (h *frontierHeap) pop() frontier {
	top := (*h)[0]
	h.fixTop(false)
	return top
}

// fixTop restores the heap after its top list moved: onto a new posting
// (ok) or off its end, which removes it.
func (h *frontierHeap) fixTop(ok bool) {
	old := *h
	if ok {
		old[0].pk = old[0].list.pk()
	} else {
		last := len(old) - 1
		old[0] = old[last]
		old[last] = frontier{}
		old = old[:last]
		*h = old
	}
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(old) && bytes.Compare(old[l].pk, old[small].pk) < 0 {
			small = l
		}
		if r < len(old) && bytes.Compare(old[r].pk, old[small].pk) < 0 {
			small = r
		}
		if small == i {
			return
		}
		old[i], old[small] = old[small], old[i]
		i = small
	}
}

// threshold is the count an id must reach: the bound's Need of the
// token count in the id's length byte. A list is ordered by length, so
// the ids of one length come in runs and Need is computed once a run.
type threshold struct {
	b    sim.Bounds
	min  int  // Need at the smallest length searched: the search's T
	flat bool // every id needs min and carries no length that is read
	l, n int  // the length byte last seen and its Need
}

// newThreshold is the threshold of a search under b from length byte
// lo up. The top byte stands for lengthBucket or more, and Need at
// lengthBucket is the least of those.
func newThreshold(b sim.Bounds, lo byte) threshold {
	n := b.Need(int(lo))
	return threshold{b: b, min: n, flat: b.Flat(), l: int(lo), n: n}
}

// of returns the count id must reach.
func (th *threshold) of(id []byte) int {
	if th.flat {
		return th.min
	}
	if l := int(id[0]); l != th.l {
		th.l, th.n = l, th.b.Need(l)
	}
	return th.n
}

// solve runs algo over the lists and returns, in id order, every id on
// at least th.of(id) of them, and how many ids reached th.min without
// reaching that (SearchStats.Pruned).
func solve(lists []postings, th *threshold, algo Algorithm) (ids []PK, pruned int) {
	if th.min <= 0 || th.min > len(lists) {
		return nil, 0
	}
	keep := func(id []byte, count, need int) {
		if count >= need {
			ids = append(ids, PK(id))
		} else if count >= th.min {
			pruned++
		}
	}
	switch algo {
	case DivideSkip:
		divideSkip(lists, th, keep)
	default:
		mergeCount(lists, th, 0, algo == MergeSkip, func(id []byte, count int) {
			keep(id, count, th.of(id))
		})
	}
	return ids, pruned
}

// mergeCount is the heap merge both ScanCount and MergeSkip are: the
// lists standing on the smallest id move on by one posting each, which
// counts it, and emit is called, in id order and with the exact count,
// for every id on at least th.min-slack lists — slack is what other
// lists may still add. Without skip that is all, and every posting is
// read — ScanCount. With skip, an id that fell short of t =
// th.of(id)-slack takes the t-1 smallest frontiers off the heap and
// seeks them to the smallest id left on it, since every id below that
// is at least as long, so needs at least t, and is on at most t-1
// lists; and the merge ends once fewer than t lists have postings left
// — MergeSkip.
func mergeCount(lists []postings, th *threshold, slack int, skip bool, emit func(id []byte, count int)) {
	h := make(frontierHeap, 0, len(lists))
	for _, l := range lists {
		if l.next() {
			h.push(frontier{pk: l.pk(), list: l})
		}
	}
	var popped []frontier
	for len(h) > 0 {
		id, count := h[0].pk, 0
		t := th.of(id) - slack
		if skip && len(h) < t {
			return
		}
		for len(h) > 0 && bytes.Equal(h[0].pk, id) {
			count++
			h.fixTop(h[0].list.next())
		}
		if count >= th.min-slack {
			emit(id, count)
		}
		if count >= t || !skip || len(h) < t {
			continue
		}
		// The heap holds at least t lists, so t-1 come off it and its top
		// is then the bound.
		popped = popped[:0]
		for len(popped) < t-1 {
			popped = append(popped, h.pop())
		}
		bound := h[0].pk
		for _, f := range popped {
			if f.list.seekGE(bound) {
				h.push(frontier{pk: f.list.pk(), list: f.list})
			}
		}
	}
}

// divideSkipMu is the tuning constant of DivideSkip's long-list count
// heuristic L = T / (mu*log2(M) + 1); Li et al. found values near 0.01
// effective.
const divideSkipMu = 0.01

// divideSkip sets the L lists with the largest size hints aside as
// "long", runs MergeSkip over the rest with threshold Need-L, and
// completes each candidate's count by seeking the long lists to it —
// they are probed, never merged, so what lies between two candidates is
// skipped. Correct because an id on fewer than Need-L short lists can
// gather at most L more; candidates arrive in id order, so the probes
// only move forward. L comes from T = th.min, the least Need, so that
// L < Need for every id. At T = 1 no list is long and this is a plain
// merge.
func divideSkip(lists []postings, th *threshold, keep func(id []byte, count, need int)) {
	t := th.min
	// Longest hint first; an insertion sort, stable, over a dozen lists.
	hints := make([]int64, len(lists))
	for i, l := range lists {
		hints[i] = l.sizeHint()
		for j := i; j > 0 && hints[j] > hints[j-1]; j-- {
			hints[j], hints[j-1] = hints[j-1], hints[j]
			lists[j], lists[j-1] = lists[j-1], lists[j]
		}
	}
	// A tree list's hint is exact where it lies inside one page of each
	// component and a fence-key estimate where it spans pages
	// (storage.Cursor.SizeHint), so short lists are ranked by their
	// lengths too. When the longest holds at most one posting, log2 says
	// nothing and the heuristic sits at its bound, T-1 long lists.
	l := t - 1
	if longest := hints[0]; longest > 1 {
		l = min(l, int(float64(t)/(divideSkipMu*math.Log2(float64(longest))+1)))
	}
	long, short := lists[:l], lists[l:]
	mergeCount(short, th, l, true, func(id []byte, count int) {
		// Shortest long list first: it is the likeliest to miss, and a
		// candidate that can no longer reach its Need leaves the longer
		// ones alone.
		need := th.of(id)
		for i := len(long) - 1; i >= 0 && count < need && count+i+1 >= need; i-- {
			if long[i].seekGE(id) && bytes.Equal(long[i].pk(), id) {
				count++
			}
		}
		keep(id, count, need)
	})
}
