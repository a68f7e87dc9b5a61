package ideal

// The reference implementation of the nearest-line search, kept verbatim
// from before the search moved onto wordIndex: snapshot models over a
// map-based word index, and the online cache with its map-based index
// and tag-entry payloads. The differential tests in ideal_test.go drive
// it and the production code with the same inputs and require identical
// results, so every pruning rule of wordIndex is checked against a
// search that prunes nothing.

import (
	"repro/internal/cache"
	"repro/internal/diffenc"
	"repro/internal/line"
	"repro/internal/llc"
	"repro/internal/memory"
	"repro/internal/xrand"
)

// refDiffSnapshot returns the effective-capacity factor of ideal diff
// compression over a snapshot, processed in insertion order: each line is
// stored as mask+diff against the most similar earlier line whenever that
// is smaller than a raw line.
func refDiffSnapshot(lines []line.Line) float64 {
	if len(lines) == 0 {
		return 1
	}
	idx := newRefWordIndex(0x1dea)
	costBytes := 0
	for i := range lines {
		l := &lines[i]
		if l.IsZero() {
			continue // zero lines are tag-only
		}
		cost := line.Size
		if best, ok := idx.nearest(l, lines); ok {
			if d := line.DiffBytes(l, &lines[best]); diffenc.DiffSizeBytes(d) < cost {
				cost = diffenc.DiffSizeBytes(d)
			}
		}
		// A 0+diff against the implicit zero line is also available.
		if z := diffenc.DiffSizeBytes(l.PopCountNonZero()); z < cost {
			cost = z
		}
		costBytes += cost
		idx.add(i, l)
	}
	if costBytes == 0 {
		return float64(len(lines))
	}
	return float64(len(lines)*line.Size) / float64(costBytes)
}

// refDiffCDF returns, for each n in 0..64, the fraction of lines whose
// minimum byte-difference against any other snapshot line is at most n
// (Fig. 2 top). Exact duplicates fall in the n=0 bucket.
func refDiffCDF(lines []line.Line) [line.Size + 1]float64 {
	var cdf [line.Size + 1]float64
	if len(lines) < 2 {
		return cdf
	}
	idx := newRefWordIndex(0x2cdf)
	for i := range lines {
		idx.add(i, &lines[i])
	}
	counts := make([]int, line.Size+1)
	for i := range lines {
		best := line.Size
		if j, ok := idx.nearestExcluding(&lines[i], lines, i); ok {
			best = line.DiffBytes(&lines[i], &lines[j])
		}
		counts[best]++
	}
	cum := 0
	for n := 0; n <= line.Size; n++ {
		cum += counts[n]
		cdf[n] = float64(cum) / float64(len(lines))
	}
	return cdf
}

// refWordIndex locates near-duplicate candidates by exact 8-byte word match,
// with a bounded random probe fallback.
type refWordIndex struct {
	byWord map[uint64][]int
	all    []int
	rng    *xrand.Rand
}

func newRefWordIndex(seed uint64) *refWordIndex {
	return &refWordIndex{byWord: make(map[uint64][]int), rng: xrand.New(seed)}
}

func (ix *refWordIndex) add(id int, l *line.Line) {
	for i := 0; i < line.WordsPerLine; i++ {
		w := l.Word(i)
		lst := ix.byWord[w]
		if len(lst) < maxCandidates { // duplicate-heavy words need no more
			ix.byWord[w] = append(lst, id)
		}
	}
	ix.all = append(ix.all, id)
}

// nearest returns the indexed line most similar to l.
func (ix *refWordIndex) nearest(l *line.Line, lines []line.Line) (int, bool) {
	return ix.nearestExcluding(l, lines, -1)
}

// nearestExcluding is nearest but skips the line with index self.
func (ix *refWordIndex) nearestExcluding(l *line.Line, lines []line.Line, self int) (int, bool) {
	best, bestDiff := -1, line.Size+1
	seen := 0
	consider := func(id int) {
		if id == self {
			return
		}
		seen++
		if d := line.DiffBytes(l, &lines[id]); d < bestDiff {
			best, bestDiff = id, d
		}
	}
	for i := 0; i < line.WordsPerLine && bestDiff > 0; i++ {
		for _, id := range ix.byWord[l.Word(i)] {
			consider(id)
			if seen > maxCandidates {
				break
			}
		}
	}
	for p := 0; p < randomProbes && len(ix.all) > 0; p++ {
		consider(ix.all[ix.rng.Intn(len(ix.all))])
	}
	return best, best >= 0
}

// refPayload records the line and its frozen compressed size. The ideal
// model charges each line the size observed at insertion (the paper's
// ideal searches the cache at insertion time).
type refPayload struct {
	data line.Line
	cost int
}

// refCache is the reference online ideal-diff LLC.
type refCache struct {
	cfg   Config
	tags  *cache.Array[refPayload]
	used  int
	clock int
	mem   *memory.Store
	idx   map[uint64][]int // word → tag indices (lazily cleaned)
	rng   *xrand.Rand

	stats llc.Stats
}

// newRefCache builds the reference cache over mem.
func newRefCache(cfg Config, mem *memory.Store) *refCache {
	return &refCache{
		cfg: cfg,
		tags: cache.New[refPayload](cache.Config{
			Entries: cfg.TagEntries, Ways: cfg.TagWays, Policy: "plru",
		}),
		mem: mem,
		idx: make(map[uint64][]int),
		rng: xrand.New(cfg.Seed),
	}
}

// Name implements llc.Cache.
func (c *refCache) Name() string { return "Ideal" }

// Read implements llc.Cache.
func (c *refCache) Read(addr line.Addr) (line.Line, bool) {
	addr = addr.LineAddr()
	c.stats.Reads++
	if e, _ := c.tags.Lookup(addr); e != nil {
		c.stats.ReadHits++
		return e.Payload.data, true
	}
	data := c.mem.Read(addr, memory.Fill)
	c.stats.Fills++
	c.install(addr, data, false)
	return data, false
}

// Write implements llc.Cache.
func (c *refCache) Write(addr line.Addr, data line.Line) bool {
	addr = addr.LineAddr()
	c.stats.Writes++
	if e, idx := c.tags.Lookup(addr); e != nil {
		c.stats.WriteHits++
		c.used -= e.Payload.cost
		e.Payload = refPayload{data: data, cost: c.cost(&data)}
		c.used += e.Payload.cost
		c.indexLine(idx, &data)
		c.evictToBudget(addr)
		e.Dirty = true
		return true
	}
	c.install(addr, data, true)
	return false
}

// cost returns the idealized storage cost of data given current contents.
func (c *refCache) cost(data *line.Line) int {
	if data.IsZero() {
		return 0
	}
	best := line.Size
	if z := diffenc.DiffSizeBytes(data.PopCountNonZero()); z < best {
		best = z
	}
	probe := func(id int) {
		e := c.tags.EntryAt(id)
		if !e.Valid {
			return
		}
		if d := diffenc.DiffSizeBytes(line.DiffBytes(data, &e.Payload.data)); d < best {
			best = d
		}
	}
	seen := 0
	for i := 0; i < line.WordsPerLine && best > diffenc.DiffSizeBytes(0); i++ {
		lst := c.idx[data.Word(i)]
		kept := lst[:0]
		for _, id := range lst {
			e := c.tags.EntryAt(id)
			if !e.Valid || !hasWord(&e.Payload.data, data.Word(i)) {
				continue // lazily drop stale index entries
			}
			kept = append(kept, id)
			probe(id)
			seen++
			if seen > maxCandidates {
				break
			}
		}
		c.idx[data.Word(i)] = kept
	}
	for p := 0; p < randomProbes; p++ {
		probe(c.rng.Intn(c.cfg.TagEntries))
	}
	return best
}

// indexLine registers the line's words for candidate lookup.
func (c *refCache) indexLine(tagIdx int, l *line.Line) {
	for i := 0; i < line.WordsPerLine; i++ {
		w := l.Word(i)
		lst := c.idx[w]
		if len(lst) < maxCandidates {
			c.idx[w] = append(lst, tagIdx)
		}
	}
}

// install inserts a new line, charging its ideal compressed size.
func (c *refCache) install(addr line.Addr, data line.Line, dirty bool) {
	e, idx, evicted, had := c.tags.Insert(addr)
	if had {
		c.retire(evicted)
	}
	e.Payload = refPayload{data: data, cost: c.cost(&data)}
	e.Dirty = dirty
	c.used += e.Payload.cost
	c.indexLine(idx, &data)
	c.evictToBudget(addr)
}

// evictToBudget evicts clock victims until the data budget is respected.
func (c *refCache) evictToBudget(keep line.Addr) {
	for c.used > c.cfg.DataBytes {
		e := c.tags.EntryAt(c.clock)
		victim := c.clock
		c.clock = (c.clock + 1) % c.cfg.TagEntries
		if !e.Valid || e.Addr == keep.LineAddr() {
			continue
		}
		old := c.tags.InvalidateIndex(victim)
		c.retire(old)
	}
}

// retire writes back and un-charges a displaced line.
func (c *refCache) retire(evicted cache.Entry[refPayload]) {
	c.used -= evicted.Payload.cost
	if evicted.Dirty {
		c.mem.Write(evicted.Addr, evicted.Payload.data, memory.Writeback)
		c.stats.Writebacks++
	}
}

// Stats implements llc.Cache.
func (c *refCache) Stats() llc.Stats { return c.stats }

// Footprint implements llc.Cache.
func (c *refCache) Footprint() llc.Footprint {
	used := c.used
	return llc.Footprint{
		ResidentLines:  c.tags.CountValid(),
		DataBytesUsed:  used,
		DataBytesTotal: c.cfg.DataBytes,
	}
}
