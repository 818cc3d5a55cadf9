package invindex

import (
	"bytes"
	"math"
	"slices"

	"simdb/internal/storage"
)

// ScanCount, MergeSkip and DivideSkip from "Efficient Merging and
// Filtering Algorithms for Approximate String Searches" (Li et al., ICDE
// 2008), the list-merging algorithms AsterixDB's inverted-index search
// uses to solve the T-occurrence problem. All three run over posting
// cursors: a skip that crosses a page never reads the pages in between,
// and a list the search is done with is not read to its end.

// postings is one token's posting list read forward in pk order. A list
// starts before its first posting: next or seekGE moves onto one. pk is
// valid while the list stays on a posting; the bytes stay valid after it
// moves on.
type postings interface {
	next() bool
	// seekGE moves forward to the first posting >= pk; a pk at or before
	// the current posting leaves the list where it is.
	seekGE(pk []byte) bool
	pk() []byte
	// sizeHint estimates the list's length without reading it; only the
	// order of the hints of one search's lists matters.
	sizeHint() int64
}

// treePostings reads a token's postings through a storage cursor over
// the token's key range; a posting is the key minus the token prefix.
type treePostings struct {
	cur    *storage.Cursor
	prefix []byte // the token's key prefix, the start of the cursor's range
	seek   []byte // scratch: prefix followed by the seek target
}

func (p *treePostings) next() bool      { return p.cur.Next() }
func (p *treePostings) pk() []byte      { return p.cur.Key()[len(p.prefix):] }
func (p *treePostings) sizeHint() int64 { return p.cur.SizeHint() }

func (p *treePostings) seekGE(pk []byte) bool {
	if p.seek == nil {
		p.seek = append(make([]byte, 0, len(p.prefix)+2*len(pk)), p.prefix...)
	}
	p.seek = append(p.seek[:len(p.prefix)], pk...)
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

// solve runs algo over the lists and returns every pk on at least t of
// them, in sorted order.
func solve(lists []postings, t int, algo Algorithm) []PK {
	if t <= 0 || t > len(lists) {
		return nil
	}
	var out []PK
	switch algo {
	case DivideSkip:
		divideSkip(lists, t, func(pk []byte) { out = append(out, PK(pk)) })
	default:
		mergeCount(lists, t, algo == MergeSkip, func(pk []byte, _ int) { out = append(out, PK(pk)) })
	}
	return out
}

// mergeCount is the heap merge both ScanCount and MergeSkip are: the
// lists standing on the smallest pk move on by one posting each, which
// counts it, and emit is called for every pk on at least t lists, in pk
// order, with the exact count. Without skip that is all, and every
// posting is read — ScanCount. With skip, a pk that fell short takes the
// t-1 smallest frontiers off the heap and seeks them to the smallest pk
// left on it, since nothing below that can still reach t, and the merge
// ends once fewer than t lists have postings left — MergeSkip.
func mergeCount(lists []postings, t int, skip bool, emit func(pk []byte, count int)) {
	h := make(frontierHeap, 0, len(lists))
	for _, l := range lists {
		if l.next() {
			h.push(frontier{pk: l.pk(), list: l})
		}
	}
	var popped []frontier
	for len(h) > 0 && (!skip || len(h) >= t) {
		pk, count := h[0].pk, 0
		for len(h) > 0 && bytes.Equal(h[0].pk, pk) {
			count++
			h.fixTop(h[0].list.next())
		}
		if count >= t {
			emit(pk, count)
			continue
		}
		if !skip || len(h) < t {
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
// "long", runs MergeSkip over the rest with threshold T-L, and completes
// each candidate's count by seeking the long lists to it — they are
// probed, never merged, so what lies between two candidates is skipped.
// Correct because a pk on fewer than T-L short lists can gather at most
// L < T total occurrences; candidates arrive in pk order, so the probes
// only move forward. At T = 1 no list is long and this is a plain merge.
func divideSkip(lists []postings, t int, emit func(pk []byte)) {
	// Longest hint first; an insertion sort, stable, over a dozen lists.
	hints := make([]int64, len(lists))
	for i, l := range lists {
		hints[i] = l.sizeHint()
		for j := i; j > 0 && hints[j] > hints[j-1]; j-- {
			hints[j], hints[j-1] = hints[j-1], hints[j]
			lists[j], lists[j-1] = lists[j-1], lists[j]
		}
	}
	// The hint of a list shorter than a page may be 0; the heuristic then
	// sits at its bound, T-1 long lists.
	l := t - 1
	if longest := hints[0]; longest > 1 {
		l = min(l, int(float64(t)/(divideSkipMu*math.Log2(float64(longest))+1)))
	}
	long, short := lists[:l], lists[l:]
	mergeCount(short, t-l, true, func(pk []byte, count int) {
		// Shortest long list first: it is the likeliest to miss, and a
		// candidate that can no longer reach t leaves the longer ones alone.
		for i := len(long) - 1; i >= 0 && count < t && count+i+1 >= t; i-- {
			if long[i].seekGE(pk) && bytes.Equal(long[i].pk(), pk) {
				count++
			}
		}
		if count >= t {
			emit(pk)
		}
	})
}
