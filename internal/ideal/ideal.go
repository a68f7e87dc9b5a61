// Package ideal implements the idealized compression models the paper
// uses to bound what is achievable:
//
//   - Ideal-Dedup (Fig. 1): instantly finds exact duplicates anywhere in
//     the LLC and stores each distinct value once;
//   - Ideal-Diff (Fig. 1): instantly finds the most similar resident line
//     and stores only the differing bytes when that is smaller;
//   - an online Ideal-Diff cache (the "Ideal" series of Fig. 13) that
//     performs the whole-cache nearest-line search at every insertion.
//
// The whole-cache search is accelerated with an exact-word index: lines
// within a useful diff distance almost always share at least one aligned
// 8-byte word with their nearest neighbour, so candidates are found by
// word equality and supplemented with a random probe set. This is the one
// deliberate approximation in the package (DESIGN.md §4, item 10); the
// index that runs it is described in docs/performance.md.
package ideal

import (
	"repro/internal/cache"
	"repro/internal/diffenc"
	"repro/internal/line"
	"repro/internal/llc"
	"repro/internal/memory"
)

// DedupSnapshot returns the effective-capacity factor of ideal exact
// deduplication over a snapshot: total lines divided by distinct values
// (zero lines are free, as a zero tag encoding needs no data).
func DedupSnapshot(lines []line.Line) float64 {
	if len(lines) == 0 {
		return 1
	}
	uniq := make(map[line.Line]struct{}, len(lines))
	nonZero := 0
	for i := range lines {
		if lines[i].IsZero() {
			continue
		}
		nonZero++
		uniq[lines[i]] = struct{}{}
	}
	if len(uniq) == 0 {
		return float64(len(lines)) // all-zero snapshot: effectively free
	}
	return float64(len(lines)) / float64(len(uniq))
}

// DiffSnapshot returns the effective-capacity factor of ideal diff
// compression over a snapshot, processed in insertion order: each line is
// stored as mask+diff against the most similar earlier line whenever that
// is smaller than a raw line.
func DiffSnapshot(lines []line.Line) float64 {
	if len(lines) == 0 {
		return 1
	}
	ix := newWordIndex(0, 0x1dea)
	costBytes := 0
	for i := range lines {
		l := &lines[i]
		if l.IsZero() {
			continue // zero lines are tag-only
		}
		costBytes += diffenc.DiffSizeBytes(ix.nearest(l, -1, diffLimit(l)))
		ix.push(l)
	}
	if costBytes == 0 {
		return float64(len(lines))
	}
	return float64(len(lines)*line.Size) / float64(costBytes)
}

// diffLimit is the search limit for a non-zero line: a diff against a
// neighbour only lowers its cost when it is smaller than both a raw line
// and a 0+diff against the implicit zero line.
func diffLimit(l *line.Line) int {
	return min(line.Size-diffenc.DiffSizeBytes(0), l.PopCountNonZero())
}

// DiffCDF returns, for each n in 0..64, the fraction of lines whose
// minimum byte-difference against any other snapshot line is at most n
// (Fig. 2 top). Exact duplicates fall in the n=0 bucket.
func DiffCDF(lines []line.Line) [line.Size + 1]float64 {
	var cdf [line.Size + 1]float64
	if len(lines) < 2 {
		return cdf
	}
	ix := newWordIndex(0, 0x2cdf)
	for i := range lines {
		ix.push(&lines[i])
	}
	counts := make([]int, line.Size+1)
	for i := range lines {
		counts[ix.nearest(&lines[i], i, line.Size)]++
	}
	cum := 0
	for n := 0; n <= line.Size; n++ {
		cum += counts[n]
		cdf[n] = float64(cum) / float64(len(lines))
	}
	return cdf
}

// Config sizes the online Ideal-Diff cache: tag count matching the
// compressed designs and a data-byte budget matching Thesaurus.
type Config struct {
	TagEntries int
	TagWays    int
	DataBytes  int
	Seed       uint64
}

// DefaultConfig matches the iso-silicon envelope of Table 2.
func DefaultConfig() Config {
	return Config{TagEntries: 32768, TagWays: 8, DataBytes: 1462 * 512, Seed: 0x1dea1}
}

// Cache is the online ideal-diff LLC (the "Ideal" series in Fig. 13).
// Each tag's payload is the compressed size frozen at insertion (the
// paper's ideal searches the cache at insertion time); the line itself
// lives in the search index's slab under the tag's stable index.
type Cache struct {
	cfg   Config
	tags  *cache.Array[int]
	used  int
	clock int
	mem   *memory.Store
	ix    *wordIndex

	stats llc.Stats
}

var _ llc.Cache = (*Cache)(nil)

// New builds the ideal cache over mem.
func New(cfg Config, mem *memory.Store) *Cache {
	return &Cache{
		cfg: cfg,
		tags: cache.New[int](cache.Config{
			Entries: cfg.TagEntries, Ways: cfg.TagWays, Policy: "plru",
		}),
		mem: mem,
		ix:  newWordIndex(cfg.TagEntries, cfg.Seed),
	}
}

// Name implements llc.Cache.
func (c *Cache) Name() string { return "Ideal" }

// Read implements llc.Cache.
func (c *Cache) Read(addr line.Addr) (line.Line, bool) {
	addr = addr.LineAddr()
	c.stats.Reads++
	if e, idx := c.tags.Lookup(addr); e != nil {
		c.stats.ReadHits++
		return c.ix.slab[idx], true
	}
	data := c.mem.Read(addr, memory.Fill)
	c.stats.Fills++
	c.install(addr, data, false)
	return data, false
}

// Write implements llc.Cache.
func (c *Cache) Write(addr line.Addr, data line.Line) bool {
	addr = addr.LineAddr()
	c.stats.Writes++
	if e, idx := c.tags.Lookup(addr); e != nil {
		c.stats.WriteHits++
		c.used -= e.Payload
		e.Payload = c.cost(&data) // searched while the old data is resident
		c.used += e.Payload
		c.ix.store(idx, &data)
		c.ix.index(idx)
		c.evictToBudget(addr)
		e.Dirty = true
		return true
	}
	c.install(addr, data, true)
	return false
}

// cost returns the idealized storage cost of data given current contents.
func (c *Cache) cost(data *line.Line) int {
	if data.IsZero() {
		return 0
	}
	return diffenc.DiffSizeBytes(c.ix.nearestCompacting(data, diffLimit(data)))
}

// install inserts a new line, charging its ideal compressed size.
func (c *Cache) install(addr line.Addr, data line.Line, dirty bool) {
	e, idx, evicted, had := c.tags.Insert(addr)
	if had {
		c.retire(idx, evicted)
	}
	// The new tag is valid with a zero payload while its cost is searched.
	c.ix.store(idx, &line.Zero)
	e.Payload = c.cost(&data)
	e.Dirty = dirty
	c.used += e.Payload
	c.ix.store(idx, &data)
	c.ix.index(idx)
	c.evictToBudget(addr)
}

// evictToBudget evicts clock victims until the data budget is respected.
func (c *Cache) evictToBudget(keep line.Addr) {
	for c.used > c.cfg.DataBytes {
		e := c.tags.EntryAt(c.clock)
		victim := c.clock
		c.clock = (c.clock + 1) % c.cfg.TagEntries
		if !e.Valid || e.Addr == keep.LineAddr() {
			continue
		}
		old := c.tags.InvalidateIndex(victim)
		c.retire(victim, old)
		c.ix.kill(victim)
	}
}

// retire writes back and un-charges the line displaced from tag index
// idx; its data is still in the slab.
func (c *Cache) retire(idx int, evicted cache.Entry[int]) {
	c.used -= evicted.Payload
	if evicted.Dirty {
		c.mem.Write(evicted.Addr, c.ix.slab[idx], memory.Writeback)
		c.stats.Writebacks++
	}
}

// DecompressionCycles reports the idealized one-cycle diff application.
func (c *Cache) DecompressionCycles() float64 { return 1 }

// Stats implements llc.Cache.
func (c *Cache) Stats() llc.Stats { return c.stats }

// ResetStats implements llc.Cache.
func (c *Cache) ResetStats() {
	c.stats = llc.Stats{}
	c.tags.ResetStats()
}

// Footprint implements llc.Cache.
func (c *Cache) Footprint() llc.Footprint {
	used := c.used
	return llc.Footprint{
		ResidentLines:  c.tags.CountValid(),
		DataBytesUsed:  used,
		DataBytesTotal: c.cfg.DataBytes,
	}
}

// Release implements llc.Cache: the ideal model keeps no post-run extras,
// so the snapshot carries only the common statistics. The tag array and
// the search index (line slab, slot metadata, word table and lists) are
// freed; the cache must not be used afterwards.
func (c *Cache) Release() llc.StatsSnapshot {
	if c.tags == nil {
		panic("ideal: Release called twice")
	}
	c.tags = nil
	c.ix = nil
	return llc.StatsSnapshot{Design: c.Name(), Stats: c.stats}
}
