// Package thesaurus implements the paper's contribution: an LLC that
// dynamically clusters similar cachelines with locality-sensitive hashing
// and stores cluster members as byte-granular diffs against a per-cluster
// base (clusteroid).
//
// Organization follows §5: a decoupled tag array (2× the conventional tag
// count at iso-silicon), a segment-granular data array with startmap/segix
// indirection, a global in-memory base table holding one clusteroid per
// LSH fingerprint, and an LLC-side base cache over it. Data-array victim
// sets are chosen with a best-of-n policy (§5.4.3).
package thesaurus

import (
	"fmt"
	"math/bits"

	"repro/internal/bdi"
	"repro/internal/cache"
	"repro/internal/diffenc"
	"repro/internal/line"
	"repro/internal/llc"
	"repro/internal/lsh"
	"repro/internal/memory"
	"repro/internal/stats"
	"repro/internal/xrand"
)

// Config sizes a Thesaurus LLC. DefaultConfig reproduces the Table 2
// iso-silicon design point for a 1MB conventional baseline.
type Config struct {
	// TagEntries is the tag-array size (2× the conventional tag count).
	TagEntries int
	// TagWays is the tag associativity.
	TagWays int
	// DataSets is the number of data-array sets.
	DataSets int
	// SegmentsPerSet is the number of 8-byte segments per data set (64 in
	// the paper: a 128-bit startmap at 2 bits per segment).
	SegmentsPerSet int
	// LSH configures the fingerprint hasher.
	LSH lsh.Config
	// BaseCacheSets and BaseCacheWays size the base cache (64×8 = 512
	// entries in the paper).
	BaseCacheSets, BaseCacheWays int
	// VictimCandidates is the n of the best-of-n data victim policy (4).
	VictimCandidates int
	// Seed drives the data-victim sampling.
	Seed uint64
	// DiffSeriesWindow, when positive, records the Fig. 19 diff-size time
	// series with the given averaging window.
	DiffSeriesWindow int
	// BaseCachePlainLRU disables the scan-resistant victim-priority
	// insertion of base-cache fills (see BaseCache.Access), reverting to
	// the paper's plain pseudo-LRU management. Used by the ablation.
	BaseCachePlainLRU bool
	// IntraLineFallback enables the 2DCC-style second compression
	// dimension (Ghasemazar et al., DATE 2020 — the paper's reference
	// [21]): lines that fail to cluster (raw fallback) are compressed
	// intra-line with BΔI before being stored. Off by default — the
	// ASPLOS paper evaluates clustering alone.
	IntraLineFallback bool
	// AdaptiveEpoch, when positive, enables the cache-insensitivity
	// detector sketched in §6.1/§6.3: compression is disabled for epochs
	// of this many accesses whenever the hit rate shows the workload
	// cannot benefit (see adaptive.go). Zero disables the detector (the
	// paper's evaluated configuration).
	AdaptiveEpoch int
	// WriteBufferDepth bounds the write buffer that defers whole write
	// operations (lookup included) until the buffer fills or the cache's
	// state is next observed, modelling §5.4.2's off-critical-path
	// re-encoding. Draining replays the buffered writes in arrival order
	// through the unmodified write path, so every statistic, replacement
	// decision, and rng draw is byte-identical to an unbuffered cache
	// (docs/performance.md). Zero disables buffering.
	WriteBufferDepth int
}

// DefaultWriteBufferDepth is the default write-buffer capacity: deep
// enough to batch a typical writeback burst, small enough that the
// deferred state is bounded by one tag set's worth of lines.
const DefaultWriteBufferDepth = 32

// DefaultConfig returns the paper's Table 2 configuration: 32768 tags
// (8-way), 11700-entry-equivalent data array, 12-bit LSH, 512-entry base
// cache, best-of-4 victim selection.
func DefaultConfig() Config {
	return Config{
		TagEntries: 32768,
		TagWays:    8,
		// 11700 data entries × 64B ≈ 749KB → 1462 sets of 512B.
		DataSets:         1462,
		SegmentsPerSet:   64,
		LSH:              lsh.DefaultConfig(),
		BaseCacheSets:    64,
		BaseCacheWays:    8,
		VictimCandidates: 4,
		Seed:             0x7e5a7105,
		WriteBufferDepth: DefaultWriteBufferDepth,
	}
}

// ScaledConfig returns a configuration iso-silicon with a conventional
// cache of sizeBytes, scaling the Table 2 proportions linearly.
func ScaledConfig(sizeBytes int) Config {
	cfg := DefaultConfig()
	scale := float64(sizeBytes) / float64(1<<20)
	cfg.TagEntries = roundMultiple(int(float64(cfg.TagEntries)*scale), cfg.TagWays)
	cfg.DataSets = int(float64(cfg.DataSets) * scale)
	if cfg.DataSets < 1 {
		cfg.DataSets = 1
	}
	return cfg
}

func roundMultiple(n, m int) int {
	if n < m {
		return m
	}
	return n / m * m
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.TagEntries <= 0 || c.TagWays <= 0 || c.TagEntries%c.TagWays != 0 {
		return fmt.Errorf("thesaurus: bad tag geometry %d/%d", c.TagEntries, c.TagWays)
	}
	if c.DataSets <= 0 || c.SegmentsPerSet <= 0 {
		return fmt.Errorf("thesaurus: bad data geometry %d×%d", c.DataSets, c.SegmentsPerSet)
	}
	if c.BaseCacheSets <= 0 || c.BaseCacheWays <= 0 {
		return fmt.Errorf("thesaurus: bad base cache geometry %d×%d", c.BaseCacheSets, c.BaseCacheWays)
	}
	if c.VictimCandidates <= 0 {
		return fmt.Errorf("thesaurus: need at least one victim candidate")
	}
	if c.WriteBufferDepth < 0 {
		return fmt.Errorf("thesaurus: negative write buffer depth %d", c.WriteBufferDepth)
	}
	return c.LSH.Validate()
}

// tagPayload is the Thesaurus-specific part of a tag entry (Fig. 9
// bottom-left): encoding format, LSH fingerprint, and the data-array
// pointer (setPtr + segix).
type tagPayload struct {
	fmt     diffenc.Format
	fp      lsh.Fingerprint
	setPtr  int32 // -1 when the entry has no data-array footprint
	slotIdx int32
	// fpValid records that fp was computed for the entry's current
	// content, letting write hits that re-store identical bytes skip the
	// LSH projection (the hardware would equally see an unchanged line).
	fpValid bool
}

// hasData reports whether the tag owns a data-array entry.
func (p tagPayload) hasData() bool { return p.setPtr >= 0 }

// refsBase reports whether the tag holds a reference on its cluster base.
func (p tagPayload) refsBase() bool {
	return p.fmt == diffenc.FormatBaseDiff || p.fmt == diffenc.FormatBaseOnly
}

// ExtraStats holds the Thesaurus-specific counters behind Figures 15-20.
// Per-encoding statistics count *placements*: line installs (demand fills
// and write-allocates) plus write-hit re-encodings, which run the same
// data path (§5.4.2).
type ExtraStats struct {
	// Insertions counts line installs; Reencodes counts write-hit
	// re-encodings; Placements is their sum.
	Insertions uint64
	Reencodes  uint64
	Placements uint64
	// ByFormat histograms placements by final encoding (Fig. 17).
	ByFormat [diffenc.NumFormats]uint64
	// Compressible counts insertions whose diff against the authoritative
	// clusteroid (base-cache state notwithstanding) would compress
	// (Fig. 15; zero lines and new-base installs count as compressible).
	Compressible uint64
	// RawDueToBaseMiss counts insertions stored raw only because the base
	// cache missed (§6.4's lost opportunity).
	RawDueToBaseMiss uint64
	// DiffBytesSum/DiffCount accumulate diff sizes for B+D and 0+D
	// entries (Fig. 18).
	DiffBytesSum uint64
	DiffCount    uint64
	// DataEvictions counts entries forced out of the data array to make
	// space (tag still resident elsewhere being invalidated, §5.4.1 ➑).
	DataEvictions uint64
}

// AvgDiffBytes returns the Fig. 18 metric.
func (s ExtraStats) AvgDiffBytes() float64 {
	if s.DiffCount == 0 {
		return 0
	}
	return float64(s.DiffBytesSum) / float64(s.DiffCount)
}

// CompressibleFraction returns the Fig. 15 metric.
func (s ExtraStats) CompressibleFraction() float64 {
	if s.Placements == 0 {
		return 0
	}
	return float64(s.Compressible) / float64(s.Placements)
}

// FormatFraction returns the share of placements using format f (Fig. 17).
func (s ExtraStats) FormatFraction(f diffenc.Format) float64 {
	if s.Placements == 0 {
		return 0
	}
	return float64(s.ByFormat[f]) / float64(s.Placements)
}

// Cache is a Thesaurus LLC.
type Cache struct {
	cfg    Config
	hasher *lsh.Hasher
	tags   *cache.Array[tagPayload]
	data   *DataArray
	table  *BaseTable
	bcache *BaseCache
	mem    *memory.Store
	rng    *xrand.Rand

	stats      llc.Stats
	extra      ExtraStats
	diffSeries *stats.Series

	// encScratch is the per-cache scratch encoding the placement path
	// (place → placeUnclustered → allocData) encodes into before the data
	// array copies it into slot-owned storage. One arena per Cache keeps
	// the steady-state access loop allocation-free; ownership rules are in
	// docs/performance.md. Cache is not safe for concurrent use (it never
	// was: stats and rng are unguarded), so a single scratch suffices —
	// parallel campaigns build one Cache per worker.
	encScratch diffenc.Encoded

	// wbuf is the bounded write buffer (nil when disabled): whole write
	// operations parked in arrival order until capacity or the next
	// observation of cache state forces a drain. wstats instruments the
	// batching; it is reported only through the WriteBuffer accessor,
	// never in snapshots, so buffered and unbuffered runs produce
	// byte-identical reports.
	wbuf   []bufferedWrite
	wstats WriteBufferStats

	adaptive      adaptiveState
	adaptiveStats AdaptiveStats
}

// bufferedWrite is one deferred write operation.
type bufferedWrite struct {
	addr line.Addr
	data line.Line
}

// WriteBufferStats instruments the deferred-write batching: how many
// writes were buffered, how often the buffer drained and why, and the
// largest batch replayed in one drain. CapacityDrains are the drains a
// hardware write buffer would absorb with more depth; ObservationDrains
// happen at state-observation boundaries (reads, stats, snapshots) and
// are off the simulated critical path by construction.
type WriteBufferStats struct {
	Buffered          uint64
	Drains            uint64
	CapacityDrains    uint64
	ObservationDrains uint64
	MaxBatch          uint64
}

var _ llc.Cache = (*Cache)(nil)

// New builds a Thesaurus LLC over mem.
func New(cfg Config, mem *memory.Store) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	hasher, err := lsh.New(cfg.LSH)
	if err != nil {
		return nil, err
	}
	c := &Cache{
		cfg:    cfg,
		hasher: hasher,
		tags: cache.New[tagPayload](cache.Config{
			Entries: cfg.TagEntries, Ways: cfg.TagWays, Policy: "plru",
		}),
		data:   NewDataArray(cfg.DataSets, cfg.SegmentsPerSet),
		table:  NewBaseTable(cfg.LSH.Bits, mem),
		bcache: NewBaseCache(cfg.BaseCacheSets, cfg.BaseCacheWays),
		mem:    mem,
		rng:    xrand.New(cfg.Seed),
	}
	c.bcache.LowPriorityInsert = !cfg.BaseCachePlainLRU
	if cfg.DiffSeriesWindow > 0 {
		c.diffSeries = stats.NewSeries(cfg.DiffSeriesWindow)
	}
	if cfg.WriteBufferDepth > 0 {
		c.wbuf = make([]bufferedWrite, 0, cfg.WriteBufferDepth)
	}
	return c, nil
}

// MustNew is New but panics on error.
func MustNew(cfg Config, mem *memory.Store) *Cache {
	c, err := New(cfg, mem)
	if err != nil {
		panic(err)
	}
	return c
}

// Name implements llc.Cache.
func (c *Cache) Name() string { return "Thesaurus" }

// Config returns the cache configuration.
func (c *Cache) Config() Config { return c.cfg }

// BaseCache exposes the base cache for the Fig. 20 sweep.
func (c *Cache) BaseCache() *BaseCache {
	c.drainWrites(false)
	return c.bcache
}

// BaseTable exposes the base table for the Fig. 16 sampling.
func (c *Cache) BaseTable() *BaseTable {
	c.drainWrites(false)
	return c.table
}

// Extra returns the Thesaurus-specific statistics.
func (c *Cache) Extra() ExtraStats {
	c.drainWrites(false)
	return c.extra
}

// DiffSeries returns the Fig. 19 time series (nil unless enabled).
func (c *Cache) DiffSeries() []float64 {
	c.drainWrites(false)
	if c.diffSeries == nil {
		return nil
	}
	return c.diffSeries.Points()
}

// Read implements llc.Cache (§5.4.1, Fig. 12).
//
//thesaurus:hotpath
func (c *Cache) Read(addr line.Addr) (line.Line, bool) {
	addr = addr.LineAddr()
	c.drainWrites(false)
	c.stats.Reads++
	if e, _ := c.tags.Lookup(addr); e != nil {
		c.stats.ReadHits++
		c.observeAccess(true)
		return c.decode(e), true
	}
	// Miss: fetch from memory, return data immediately; insertion happens
	// off the critical path.
	c.observeAccess(false)
	data := c.mem.Read(addr, memory.Fill)
	c.stats.Fills++
	c.install(addr, &data, false)
	return data, false
}

// Write implements llc.Cache (§5.4.2): the new content may change the
// encoding and size, so the line is re-encoded through the full data path.
// With a write buffer configured the whole operation is deferred until the
// buffer fills or the cache is next observed; the return value is then
// advisory (a statistics- and recency-free residency probe), matching what
// the operation will report when it replays. Replay order equals arrival
// order, so a buffered cache is observationally byte-identical to an
// unbuffered one.
//
//thesaurus:hotpath
func (c *Cache) Write(addr line.Addr, data line.Line) bool {
	addr = addr.LineAddr()
	if c.wbuf == nil {
		return c.writeNow(addr, &data)
	}
	hit := c.peekResident(addr)
	c.wbuf = append(c.wbuf, bufferedWrite{addr: addr, data: data})
	c.wstats.Buffered++
	if len(c.wbuf) == cap(c.wbuf) {
		c.drainWrites(true)
	}
	return hit
}

// writeNow runs one write operation through the data path immediately.
func (c *Cache) writeNow(addr line.Addr, data *line.Line) bool {
	c.stats.Writes++
	if e, idx := c.tags.Lookup(addr); e != nil {
		c.stats.WriteHits++
		c.observeAccess(true)
		c.rewriteHit(e, idx, data)
		c.extra.Reencodes++
		return true
	}
	c.observeAccess(false)
	c.install(addr, data, true)
	return false
}

// rewriteHit re-encodes a resident line with new content (§5.4.2). The
// stored encoding already knows a lot about the new line: the old-vs-new
// byte diff falls out of the stored mask and deltas without materializing
// the old line, the fingerprint is updated incrementally by re-projecting
// only the rows that tap changed bytes (exactly Fingerprint(data), see
// lsh.FingerprintDelta), and when the fingerprint is unchanged the
// new-vs-clusteroid mask computed here is handed to the encoder so the
// placement path never recomputes it.
func (c *Cache) rewriteHit(e *cache.Entry[tagPayload], tagIdx int, data *line.Line) {
	var hint placeHint
	if e.Payload.fpValid {
		oldFP := e.Payload.fp
		changed, baseMask, haveBaseMask := c.changedVsStored(e, data)
		hint.fp = oldFP
		hint.haveFP = true
		if changed != 0 {
			hint.fp = c.hasher.FingerprintDelta(oldFP, data, changed)
		}
		// baseMask is the diff against the table entry for oldFP; it is
		// only the encode mask if the new content still lands there.
		if haveBaseMask && hint.fp == oldFP {
			hint.baseMask = baseMask
			hint.haveBaseMask = true
		}
	}
	c.dropPayload(e)
	c.place(e, tagIdx, data, true, hint)
}

// changedVsStored returns the byte mask at which data differs from the
// entry's current (encoded) content, derived from the stored encoding
// instead of a decode-and-compare. For base-referencing formats it also
// returns the data-vs-clusteroid diff mask it computed along the way
// (valid for the entry's current fingerprint). The entry must be placed
// (fpValid) and compression-era: AllZero entries never carry fpValid.
func (c *Cache) changedVsStored(e *cache.Entry[tagPayload], data *line.Line) (changed, baseMask uint64, haveBaseMask bool) {
	p := e.Payload
	switch p.fmt {
	case diffenc.FormatBaseOnly:
		// Old content is the clusteroid itself.
		ent := c.table.entry(p.fp)
		baseMask = line.DiffMask(data, &ent.Base)
		return baseMask, baseMask, true
	case diffenc.FormatBaseDiff, diffenc.FormatZeroDiff:
		// Old content is ref overlaid with deltas at mask positions:
		// outside the mask it equals ref, inside it equals the stored
		// delta byte. One data-vs-ref mask plus a walk of the (short,
		// Fig. 18) delta list replaces the full decode.
		enc := c.data.encAt(int(p.setPtr), int(p.slotIdx))
		if p.fmt == diffenc.FormatBaseDiff {
			ent := c.table.entry(p.fp)
			baseMask = line.DiffMask(data, &ent.Base)
			haveBaseMask = true
			changed = baseMask &^ enc.Mask
		} else {
			changed = data.NonZeroMask() &^ enc.Mask
		}
		j := 0
		for m := enc.Mask; m != 0; m &= m - 1 {
			b := bits.TrailingZeros64(m)
			if data[b] != enc.Deltas[j] {
				changed |= 1 << uint(b)
			}
			j++
		}
		return changed, baseMask, haveBaseMask
	default:
		// Raw and Intra entries carry the old line verbatim.
		enc := c.data.encAt(int(p.setPtr), int(p.slotIdx))
		return line.DiffMask(data, &enc.Raw), 0, false
	}
}

// peekResident reports whether a write to addr will hit once the buffer
// drains: resident in the tag array (no statistics or recency update), or
// pending in the buffer itself (a buffered write-allocate installs it).
func (c *Cache) peekResident(addr line.Addr) bool {
	// Tag probe first: in steady state most writes hit a resident line,
	// and the probe touches one set instead of walking the buffer (each
	// pending write carries a full 64-byte line).
	if e, _ := c.tags.Peek(addr); e != nil {
		return true
	}
	for i := len(c.wbuf) - 1; i >= 0; i-- {
		if c.wbuf[i].addr == addr {
			return true
		}
	}
	return false
}

// drainWrites replays the buffered writes in arrival order through the
// unmodified write path. It runs on capacity and before every observation
// of cache state, so statistics, replacement state, and rng draws are
// byte-identical to an unbuffered cache at every observation point.
func (c *Cache) drainWrites(capacity bool) {
	if len(c.wbuf) == 0 {
		return
	}
	c.wstats.Drains++
	if capacity {
		c.wstats.CapacityDrains++
	} else {
		c.wstats.ObservationDrains++
	}
	if n := uint64(len(c.wbuf)); n > c.wstats.MaxBatch {
		c.wstats.MaxBatch = n
	}
	for i := range c.wbuf {
		c.writeNow(c.wbuf[i].addr, &c.wbuf[i].data)
	}
	c.wbuf = c.wbuf[:0]
}

// WriteBuffer returns the write-buffer statistics. Reading them does not
// drain the buffer (draining here would fold the act of observing the
// buffer into the numbers being observed).
func (c *Cache) WriteBuffer() WriteBufferStats { return c.wstats }

// install allocates a tag for addr (evicting as needed) and runs the
// insertion data path.
func (c *Cache) install(addr line.Addr, data *line.Line, dirty bool) {
	e, idx, evicted, had := c.tags.Insert(addr)
	if had {
		c.retire(evicted)
	}
	c.place(e, idx, data, dirty, placeHint{})
	c.extra.Insertions++
}

// retire handles a tag evicted by the tag replacement policy: write back
// dirty contents, free the data entry, and release the base reference.
func (c *Cache) retire(evicted cache.Entry[tagPayload]) {
	if evicted.Dirty {
		c.mem.Write(evicted.Addr, c.decodeEntry(&evicted), memory.Writeback)
		c.stats.Writebacks++
	}
	if evicted.Payload.hasData() {
		c.data.Remove(int(evicted.Payload.setPtr), int(evicted.Payload.slotIdx))
	}
	c.releaseBase(evicted.Payload)
}

// dropPayload releases a resident tag's data entry and base reference in
// preparation for re-encoding (write hits). The tag itself stays valid.
func (c *Cache) dropPayload(e *cache.Entry[tagPayload]) {
	if e.Payload.hasData() {
		c.data.Remove(int(e.Payload.setPtr), int(e.Payload.slotIdx))
	}
	c.releaseBase(e.Payload)
	e.Payload = tagPayload{setPtr: -1, slotIdx: -1}
}

// releaseBase decrements the clusteroid refcount for referencing formats.
// When the count reaches zero the base is retired lazily: it stays in the
// table but will be replaced by the next incoming line for that LSH
// (§5.2.3).
func (c *Cache) releaseBase(p tagPayload) {
	if !p.refsBase() {
		return
	}
	ent := c.table.entry(p.fp)
	if !ent.valid || ent.Cntr == 0 {
		panic("thesaurus: base refcount underflow")
	}
	ent.Cntr--
}

// placeHint carries what the write-hit fast path already knows about the
// line being placed: its exact fingerprint (haveFP), and — when the
// fingerprint is unchanged by the rewrite — the precomputed diff mask
// against that fingerprint's clusteroid (haveBaseMask). Both are pure
// memoization: placeLine computes identical values when they are absent.
type placeHint struct {
	fp           lsh.Fingerprint
	haveFP       bool
	baseMask     uint64
	haveBaseMask bool
}

// place runs the insertion data path (Fig. 12 b+c) for a valid tag entry
// with an empty payload, encoding data and allocating data-array space.
// placeLine does the work and place accounts the final format (the split
// replaces a deferred closure that cost an allocation-free but measurable
// defer on every placement).
func (c *Cache) place(e *cache.Entry[tagPayload], tagIdx int, data *line.Line, dirty bool, hint placeHint) {
	c.placeLine(e, tagIdx, data, dirty, hint)
	c.extra.ByFormat[e.Payload.fmt]++
}

func (c *Cache) placeLine(e *cache.Entry[tagPayload], tagIdx int, data *line.Line, dirty bool, hint placeHint) {
	e.Dirty = dirty
	e.Payload = tagPayload{setPtr: -1, slotIdx: -1}
	c.extra.Placements++

	// All-zero lines are identified in the tag alone (detected by a
	// comparator even when the adaptive detector has compression off).
	if data.IsZero() {
		e.Payload.fmt = diffenc.FormatAllZero
		c.extra.Compressible++
		return
	}

	// Cache-insensitive epoch (§6.1/§6.3 extension): skip the LSH and
	// base-cache machinery entirely and store raw.
	if c.compressionDisabled() {
		e.Payload.fmt = diffenc.FormatRaw
		c.adaptiveStats.DisabledPlacements++
		c.encScratch.SetRaw(data)
		c.allocData(e, tagIdx, &c.encScratch)
		return
	}

	fp := hint.fp
	if !hint.haveFP {
		fp = c.hasher.Fingerprint(data)
	}
	e.Payload.fp = fp
	e.Payload.fpValid = true
	ent := c.table.entry(fp)

	// The diff against the live clusteroid drives both the Fig. 15
	// accounting and the encoder; compute (or take from the hint) the
	// mask once and share it.
	live := ent.valid && ent.Cntr > 0
	var baseMask uint64
	if live {
		if hint.haveBaseMask {
			baseMask = hint.baseMask
		} else {
			baseMask = line.DiffMask(data, &ent.Base)
		}
	}

	// Fig. 15 accounting: would this line compress against the
	// authoritative clusteroid (ignoring base-cache state)?
	if !live || bits.OnesCount64(baseMask) <= diffenc.MaxCompressibleDiffBytes {
		c.extra.Compressible++
	}

	// Base-cache access on the insertion path. A miss means the base is
	// not available in time: store raw while the entry is fetched (§5.4.1).
	if !c.bcache.Access(fp, c.table, false) {
		if !ent.valid {
			// No clusteroid existed; seed the table so future insertions
			// for this fingerprint can cluster.
			ent.valid = true
			ent.Base = *data
			ent.Cntr = 0
		}
		c.extra.RawDueToBaseMiss++
		c.placeUnclustered(e, tagIdx, data)
		return
	}

	// Base cache hit: the clusteroid (if any) is at hand.
	if !live {
		// No live cluster: this line becomes the (new) clusteroid.
		ent.valid = true
		ent.Base = *data
		ent.Cntr = 1
		e.Payload.fmt = diffenc.FormatBaseOnly
		return
	}

	enc := &c.encScratch
	diffenc.EncodeIntoMasked(enc, data, baseMask)
	switch enc.Format {
	case diffenc.FormatBaseOnly:
		e.Payload.fmt = enc.Format
		ent.Cntr++
		return
	case diffenc.FormatBaseDiff:
		ent.Cntr++
	}
	if n := enc.DiffBytes(); n > 0 {
		c.extra.DiffBytesSum += uint64(n)
		c.extra.DiffCount++
		if c.diffSeries != nil {
			c.diffSeries.Add(float64(n))
		}
	}
	if enc.Format == diffenc.FormatRaw {
		c.placeUnclustered(e, tagIdx, data)
		return
	}
	e.Payload.fmt = enc.Format
	c.allocData(e, tagIdx, enc)
}

// placeUnclustered stores a line that did not join a cluster: raw, or —
// when the 2DCC-style IntraLineFallback extension is enabled — intra-line
// compressed with BΔI if that helps.
func (c *Cache) placeUnclustered(e *cache.Entry[tagPayload], tagIdx int, data *line.Line) {
	if c.cfg.IntraLineFallback {
		if size, ok := bdi.CompressedSize(data); ok {
			e.Payload.fmt = diffenc.FormatIntra
			c.encScratch.SetIntra(data, size)
			c.allocData(e, tagIdx, &c.encScratch)
			return
		}
	}
	e.Payload.fmt = diffenc.FormatRaw
	c.encScratch.SetRaw(data)
	c.allocData(e, tagIdx, &c.encScratch)
}

// allocData finds data-array space for enc using the best-of-n victim
// policy (§5.4.3), evicting entries (and their tags) as needed, and wires
// the tag's setptr/segix. enc is typically the cache's scratch encoding;
// Insert deep-copies it into slot-owned storage.
func (c *Cache) allocData(e *cache.Entry[tagPayload], tagIdx int, enc *diffenc.Encoded) {
	need := enc.Segments()
	set := c.chooseVictimSet(need)
	plan, ok := c.data.VictimPlan(set, need)
	if !ok {
		panic("thesaurus: victim plan infeasible for a single entry")
	}
	for _, slotIdx := range plan {
		c.evictDataEntry(set, slotIdx)
	}
	slotIdx := c.data.Insert(set, enc, tagIdx)
	e.Payload.setPtr = int32(set)
	e.Payload.slotIdx = int32(slotIdx)
}

// chooseVictimSet samples VictimCandidates distinct-ish data sets; the
// first with enough free space wins, otherwise the one evicting the
// fewest segments (§5.4.3).
func (c *Cache) chooseVictimSet(need int) int {
	best := -1
	bestCost := int(^uint(0) >> 1)
	for i := 0; i < c.cfg.VictimCandidates; i++ {
		s := c.rng.Intn(c.data.NumSets())
		cost := c.data.EvictionCost(s, need)
		if cost == 0 {
			return s
		}
		if cost < bestCost {
			best, bestCost = s, cost
		}
	}
	return best
}

// evictDataEntry removes the entry at (set, slot) from the data array,
// evicting its owning tag (with writeback if dirty) first.
func (c *Cache) evictDataEntry(set, slotIdx int) {
	tagIdx := c.data.TagOf(set, slotIdx)
	te := c.tags.EntryAt(tagIdx)
	if !te.Valid || int(te.Payload.setPtr) != set || int(te.Payload.slotIdx) != slotIdx {
		panic("thesaurus: data entry / tag back-pointer mismatch")
	}
	if te.Dirty {
		c.mem.Write(te.Addr, c.decode(te), memory.Writeback)
		c.stats.Writebacks++
	}
	old := c.tags.InvalidateIndex(tagIdx)
	c.data.Remove(set, slotIdx)
	c.releaseBase(old.Payload)
	c.extra.DataEvictions++
}

// decode reconstructs the line for a resident tag, modelling base-cache
// accesses on the read path for base-referencing formats.
func (c *Cache) decode(e *cache.Entry[tagPayload]) line.Line {
	if e.Payload.refsBase() {
		c.bcache.Access(e.Payload.fp, c.table, true)
	}
	return c.decodeEntry(e)
}

// decodeEntry reconstructs the line without base-cache accounting (used
// for writebacks, which the paper services off the critical path). The
// data-array entry is decoded in place by pointer — no Encoded value (and
// no delta buffer) is copied on the read path.
func (c *Cache) decodeEntry(e *cache.Entry[tagPayload]) line.Line {
	p := e.Payload
	var base *line.Line
	if p.refsBase() {
		ent := c.table.entry(p.fp)
		if !ent.valid {
			panic("thesaurus: base-referencing entry without table base")
		}
		base = &ent.Base
	}
	switch p.fmt {
	case diffenc.FormatAllZero:
		return line.Zero
	case diffenc.FormatBaseOnly:
		return *base
	}
	var out line.Line
	if err := diffenc.DecodeInto(&out, c.data.encAt(int(p.setPtr), int(p.slotIdx)), base); err != nil {
		panic(err)
	}
	return out
}

// DecompressionCycles reports the extra critical-path hit latency: one
// cycle to decompress plus four to locate the block via the indirect
// segix encoding (Table 4).
func (c *Cache) DecompressionCycles() float64 { return 5 }

// CriticalDRAMAccesses reports read-path base-cache misses, each of which
// stalls on a DRAM base-table fetch (§6.4).
func (c *Cache) CriticalDRAMAccesses() uint64 {
	c.drainWrites(false)
	return c.bcache.ReadPath.Total - c.bcache.ReadPath.Hits
}

// Stats implements llc.Cache.
func (c *Cache) Stats() llc.Stats {
	c.drainWrites(false)
	return c.stats
}

// ResetStats implements llc.Cache: clears access statistics while
// preserving cache contents (end-of-warmup semantics).
func (c *Cache) ResetStats() {
	// Pending writes arrived before the reset; their effects belong to
	// the pre-reset epoch exactly as in an unbuffered cache.
	c.drainWrites(false)
	c.stats = llc.Stats{}
	c.extra = ExtraStats{}
	c.tags.ResetStats()
	c.bcache.ReadPath = stats.Counter{}
	c.bcache.InsertPath = stats.Counter{}
	if c.cfg.DiffSeriesWindow > 0 {
		c.diffSeries = stats.NewSeries(c.cfg.DiffSeriesWindow)
	}
}

// Footprint implements llc.Cache: the Fig. 13a occupancy metric.
func (c *Cache) Footprint() llc.Footprint {
	c.drainWrites(false)
	return llc.Footprint{
		ResidentLines:  c.tags.CountValid(),
		DataBytesUsed:  c.data.UsedBytes(),
		DataBytesTotal: c.data.CapacityBytes(),
	}
}

// BaseCacheSnapshot captures the base-cache statistics that survive
// release (the Fig. 20 sweep metrics).
type BaseCacheSnapshot struct {
	// ReadPath/InsertPath are the per-path hit counters at release time.
	ReadPath   stats.Counter
	InsertPath stats.Counter
	// Entries and StorageBytes describe the configured geometry.
	Entries      int
	StorageBytes int
}

// HitRate returns the combined hit rate across both paths, exactly as
// BaseCache.HitRate computed it on the live cache.
func (b BaseCacheSnapshot) HitRate() float64 {
	total := b.ReadPath.Total + b.InsertPath.Total
	if total == 0 {
		return 0
	}
	return float64(b.ReadPath.Hits+b.InsertPath.Hits) / float64(total)
}

// Snapshot is the Thesaurus-specific release snapshot: everything
// Figures 15-20 and the calibration tool consult after the cache's
// storage is gone.
type Snapshot struct {
	// Cfg is the configuration the cache ran with.
	Cfg Config
	// Extra holds the Thesaurus counters (Figs. 15, 17, 18).
	Extra ExtraStats
	// Adaptive holds the cache-insensitivity detector counters.
	Adaptive AdaptiveStats
	// DiffSeries is the Fig. 19 time series (nil unless enabled).
	DiffSeries []float64
	// BaseCache carries the Fig. 20 base-cache metrics.
	BaseCache BaseCacheSnapshot
	// LiveClusters/ValidClusters are BaseTable.ActiveClusters at release
	// time.
	LiveClusters  int
	ValidClusters int
}

// Clone implements llc.ExtraSnapshot.
func (s *Snapshot) Clone() llc.ExtraSnapshot {
	cp := *s
	if s.DiffSeries != nil {
		// make+copy (not append onto nil) so an empty-but-non-nil series
		// stays non-nil: reports distinguish [] from null in JSON.
		cp.DiffSeries = make([]float64, len(s.DiffSeries))
		copy(cp.DiffSeries, s.DiffSeries)
	}
	return &cp
}

// Release implements llc.Cache: it extracts the immutable statistics
// snapshot and frees the cache's bulk storage — the tag array, the
// data-array slabs, and the base table's directory and pages. Nothing on
// the cache may be used afterwards; only the returned snapshot survives.
func (c *Cache) Release() llc.StatsSnapshot {
	if c.table == nil {
		panic("thesaurus: Release called twice")
	}
	c.drainWrites(false)
	live, valid := c.table.ActiveClusters()
	snap := &Snapshot{
		Cfg:      c.cfg,
		Extra:    c.extra,
		Adaptive: c.adaptiveStats,
		BaseCache: BaseCacheSnapshot{
			ReadPath:     c.bcache.ReadPath,
			InsertPath:   c.bcache.InsertPath,
			Entries:      c.bcache.Entries(),
			StorageBytes: c.bcache.StorageBytes(),
		},
		LiveClusters:  live,
		ValidClusters: valid,
	}
	if s := c.DiffSeries(); s != nil {
		snap.DiffSeries = make([]float64, len(s))
		copy(snap.DiffSeries, s)
	}
	c.table.Release()
	c.table = nil
	c.tags = nil
	c.data = nil
	c.bcache = nil
	c.diffSeries = nil
	return llc.StatsSnapshot{Design: c.Name(), Stats: c.stats, Extra: snap}
}

// CheckInvariants cross-validates tag/data/base-table bookkeeping; tests
// call it after randomized operation sequences.
func (c *Cache) CheckInvariants() error {
	c.drainWrites(false)
	if err := c.data.CheckInvariants(); err != nil {
		return err
	}
	// Every data entry's tag points back at it.
	var err error
	c.data.ForEachEntry(func(set, slotIdx int, _ *diffenc.Encoded, tagIdx int) {
		te := c.tags.EntryAt(tagIdx)
		if !te.Valid || int(te.Payload.setPtr) != set || int(te.Payload.slotIdx) != slotIdx {
			err = fmt.Errorf("data entry (%d,%d) tagptr %d stale", set, slotIdx, tagIdx)
		}
	})
	if err != nil {
		return err
	}
	// Base refcounts equal the number of referencing tags. Pre-size the
	// rebuild map to the resident-line count: an upper bound on the number
	// of distinct referencing fingerprints, avoiding rehash churn on every
	// invariant check.
	refs := make(map[lsh.Fingerprint]uint32, c.tags.CountValid())
	c.tags.ForEach(func(_ int, te *cache.Entry[tagPayload]) {
		if te.Payload.refsBase() {
			refs[te.Payload.fp]++
		}
	})
	for fp, want := range refs {
		ent := c.table.entry(fp)
		if !ent.valid || ent.Cntr != want {
			return fmt.Errorf("base %#x: cntr=%d but %d referencing tags", fp, ent.Cntr, want)
		}
	}
	// And no base claims references it does not have.
	c.table.forEach(func(fp lsh.Fingerprint, ent *BaseEntry) {
		if err == nil && ent.Cntr != 0 && refs[fp] != ent.Cntr {
			err = fmt.Errorf("base %#x: cntr=%d but %d referencing tags", fp, ent.Cntr, refs[fp])
		}
	})
	return err
}
