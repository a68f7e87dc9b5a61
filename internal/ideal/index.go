package ideal

import (
	"encoding/binary"
	"math/bits"

	"repro/internal/line"
	"repro/internal/xrand"
)

// maxCandidates bounds the per-lookup work; beyond this the candidate set
// is sampled.
const maxCandidates = 192

// randomProbes supplements word-match candidates to catch neighbours that
// differ in every word.
const randomProbes = 32

// wordIndex is the nearest-line search shared by the snapshot models and
// the online cache. It holds one dense slot per line — the line itself in
// a slab, a live flag, a version bumped on every content change, a
// per-search probe stamp and a lower-bound signature — and locates
// candidates by exact 8-byte word match through one flat open-addressed
// table from word to list. List entries carry the slot's version at
// indexing time, so an entry whose version still matches is proven
// current without reading the line.
//
// The pruning never changes a search result (docs/performance.md, "The
// Ideal oracle index"): candidates are visited, counted against
// maxCandidates and compacted exactly as a plain scan would, and the
// random probes draw the same sequence; only the byte comparison of a
// candidate that provably cannot beat the current best is skipped.
type wordIndex struct {
	slab  []line.Line
	sig   []signature
	ver   []uint32
	stamp []uint32
	live  []bool
	call  uint32 // current search's probe stamp

	// Open-addressed word → list table, at most three quarters full:
	// heads[b] is 1 + the list handle of keys[b], or 0 for an empty
	// bucket. Most words have a single-entry list, so the table's bytes
	// per word dominate the index's footprint.
	keys  []uint64
	heads []int32
	shift uint
	lists [][]entry

	rng *xrand.Rand
}

// entry is one word-list element: slot held the word at version ver.
type entry struct {
	slot int32
	ver  uint32
}

// newWordIndex returns an index over slots dead slots whose random probes
// draw from a generator seeded with seed.
func newWordIndex(slots int, seed uint64) *wordIndex {
	const initialBuckets = 1 << 10
	return &wordIndex{
		slab:  make([]line.Line, slots),
		sig:   make([]signature, slots),
		ver:   make([]uint32, slots),
		stamp: make([]uint32, slots),
		live:  make([]bool, slots),
		keys:  make([]uint64, initialBuckets),
		heads: make([]int32, initialBuckets),
		shift: 64 - 10,
		rng:   xrand.New(seed),
	}
}

// store makes slot live with content l, invalidating every list entry
// indexed under its previous content.
func (ix *wordIndex) store(slot int, l *line.Line) {
	ix.slab[slot] = *l
	ix.sig[slot] = signatureOf(l)
	ix.ver[slot]++
	ix.live[slot] = true
}

// kill marks slot dead; its list entries are dropped lazily.
func (ix *wordIndex) kill(slot int) { ix.live[slot] = false }

// push appends l as a new live slot and indexes it (snapshot use).
func (ix *wordIndex) push(l *line.Line) {
	ix.slab = append(ix.slab, line.Line{})
	ix.sig = append(ix.sig, signature{})
	ix.ver = append(ix.ver, 0)
	ix.stamp = append(ix.stamp, 0)
	ix.live = append(ix.live, false)
	slot := len(ix.slab) - 1
	ix.store(slot, l)
	ix.index(slot)
}

// index registers the slot's current words for candidate lookup. Lists
// stop growing at maxCandidates: duplicate-heavy words need no more.
func (ix *wordIndex) index(slot int) {
	e := entry{slot: int32(slot), ver: ix.ver[slot]}
	l := &ix.slab[slot]
	for i := 0; i < line.WordsPerLine; i++ {
		h := ix.handle(l.Word(i))
		if len(ix.lists[h]) < maxCandidates {
			ix.lists[h] = append(ix.lists[h], e)
		}
	}
}

// bucket returns the table bucket where w's probe sequence starts.
func (ix *wordIndex) bucket(w uint64) uint64 {
	return (w * 0x9e3779b97f4a7c15) >> ix.shift
}

// find returns w's list handle, or -1 when w was never indexed.
func (ix *wordIndex) find(w uint64) int {
	mask := uint64(len(ix.keys) - 1)
	for b := ix.bucket(w); ; b = (b + 1) & mask {
		if h := ix.heads[b]; h == 0 || ix.keys[b] == w {
			return int(h) - 1
		}
	}
}

// handle returns w's list handle, creating an empty list when absent.
func (ix *wordIndex) handle(w uint64) int {
	mask := uint64(len(ix.keys) - 1)
	b := ix.bucket(w)
	for ; ix.heads[b] != 0; b = (b + 1) & mask {
		if ix.keys[b] == w {
			return int(ix.heads[b]) - 1
		}
	}
	ix.lists = append(ix.lists, nil)
	ix.keys[b], ix.heads[b] = w, int32(len(ix.lists))
	if 4*len(ix.lists) > 3*len(ix.keys) {
		ix.grow()
	}
	return len(ix.lists) - 1
}

// grow doubles the table.
func (ix *wordIndex) grow() {
	keys, heads := ix.keys, ix.heads
	ix.keys = make([]uint64, 2*len(keys))
	ix.heads = make([]int32, 2*len(heads))
	ix.shift--
	mask := uint64(len(ix.keys) - 1)
	for i, h := range heads {
		if h == 0 {
			continue
		}
		b := ix.bucket(keys[i])
		for ix.heads[b] != 0 {
			b = (b + 1) & mask
		}
		ix.keys[b], ix.heads[b] = keys[i], h
	}
}

// beginSearch starts a new probe-stamp epoch, so every slot reads as not
// yet probed in this search.
func (ix *wordIndex) beginSearch() {
	ix.call++
	if ix.call == 0 { // wrapped: stale stamps could alias the new epoch
		clear(ix.stamp)
		ix.call = 1
	}
}

// probe returns min(limit, DiffBytes(q, slot's line)) for a live slot not
// yet probed in this search, and limit otherwise. qs is q's signature.
func (ix *wordIndex) probe(q *line.Line, qs signature, slot, limit int) int {
	if ix.stamp[slot] == ix.call {
		return limit // probed already: it cannot lower the minimum again
	}
	ix.stamp[slot] = ix.call
	if !ix.live[slot] || qs.bound(ix.sig[slot]) >= limit {
		return limit
	}
	if d := diffBelow(q, &ix.slab[slot], limit); d < limit {
		return d
	}
	return limit
}

// nearest returns the smallest DiffBytes between q and a candidate other
// than slot self, or limit when no candidate is closer than limit. The
// candidates are q's word-match lists, scanned until maxCandidates
// entries have been counted, plus randomProbes uniformly drawn slots.
// Lists are left untouched (the snapshot models index immutable lines).
func (ix *wordIndex) nearest(q *line.Line, self, limit int) int {
	qs := signatureOf(q)
	ix.beginSearch()
	seen := 0
	for i := 0; i < line.WordsPerLine && limit > 0; i++ {
		h := ix.find(q.Word(i))
		if h < 0 {
			continue
		}
		for _, e := range ix.lists[h] {
			if s := int(e.slot); s != self {
				seen++
				limit = ix.probe(q, qs, s, limit)
			}
			if seen > maxCandidates {
				break
			}
		}
	}
	for p := 0; p < randomProbes && len(ix.slab) > 0; p++ {
		if s := ix.rng.Intn(len(ix.slab)); s != self {
			limit = ix.probe(q, qs, s, limit)
		}
	}
	return limit
}

// nearestCompacting is nearest for the online cache, whose slots change
// content. Each visited list drops entries whose slot is dead or no
// longer holds the word, and a list whose scan hits the maxCandidates cap
// keeps only the entries visited so far.
func (ix *wordIndex) nearestCompacting(q *line.Line, limit int) int {
	qs := signatureOf(q)
	ix.beginSearch()
	seen := 0
	for i := 0; i < line.WordsPerLine && limit > 0; i++ {
		w := q.Word(i)
		h := ix.find(w)
		if h < 0 {
			continue
		}
		lst := ix.lists[h]
		kept := lst[:0]
		for _, e := range lst {
			s := int(e.slot)
			if !ix.live[s] {
				continue
			}
			if e.ver != ix.ver[s] {
				if !hasWord(&ix.slab[s], w) {
					continue
				}
				e.ver = ix.ver[s] // proven current until the next store
			}
			kept = append(kept, e)
			limit = ix.probe(q, qs, s, limit)
			seen++
			if seen > maxCandidates {
				break
			}
		}
		ix.lists[h] = kept
	}
	for p := 0; p < randomProbes; p++ {
		limit = ix.probe(q, qs, ix.rng.Intn(len(ix.slab)), limit)
	}
	return limit
}

func hasWord(l *line.Line, w uint64) bool {
	for i := 0; i < line.WordsPerLine; i++ {
		if l.Word(i) == w {
			return true
		}
	}
	return false
}

// signature is a 16-byte summary of a line from which a lower bound on
// DiffBytes follows without reading either line: an 8-bit hash per word
// (byte i of hash belongs to word i) and the non-zero-byte mask.
type signature struct {
	hash uint64
	nz   uint64
}

func signatureOf(l *line.Line) signature {
	var s signature
	for i := 0; i < line.WordsPerLine; i++ {
		s.hash |= (l.Word(i) * 0x9e3779b97f4a7c15 >> 56) << (8 * i)
	}
	s.nz = l.NonZeroMask()
	return s
}

// bound returns a lower bound on DiffBytes of the two signed lines. A
// byte that is zero in one line and non-zero in the other differs; so
// does at least one byte of every word whose hashes differ, and when
// the word's non-zero masks agree none of that word's bytes were counted
// by the first term.
func (s signature) bound(t signature) int {
	nzDiff := s.nz ^ t.nz
	return bits.OnesCount64(nzDiff) +
		bits.OnesCount64(foldBytes(s.hash^t.hash)&^foldBytes(nzDiff))
}

// foldBytes collapses every non-zero byte of x to its low bit.
func foldBytes(x uint64) uint64 {
	x |= x >> 4
	x |= x >> 2
	x |= x >> 1
	return x & 0x0101010101010101
}

// diffBelow returns DiffBytes(a, b) when that is below limit, and some
// value >= limit otherwise: the count stops as soon as it reaches limit.
func diffBelow(a, b *line.Line, limit int) int {
	n := 0
	for i := 0; i < line.Size; i += 8 {
		n += bits.OnesCount64(foldBytes(binary.LittleEndian.Uint64(a[i:]) ^ binary.LittleEndian.Uint64(b[i:])))
		if n >= limit {
			break
		}
	}
	return n
}
