package thesaurus

import (
	"repro/internal/line"
	"repro/internal/lsh"
	"repro/internal/memory"
	"repro/internal/plru"
	"repro/internal/stats"
)

// BaseEntry is one base-table record (§5.2.3, Fig. 9 bottom-right): the
// clusteroid line for an LSH fingerprint plus a counter of how many
// resident cache entries currently reference it. Entries start invalid
// (the zero value) and become valid when a placement seeds a clusteroid;
// they never return to invalid within a table's life.
type BaseEntry struct {
	valid bool
	Base  line.Line
	Cntr  uint32
}

// A base-table page holds pageSize consecutive entries (16 × 72 B, 1.1
// KiB).
const (
	pageBits = 4
	pageSize = 1 << pageBits
)

// basePage is one demand-allocated block of consecutive table entries.
type basePage [pageSize]BaseEntry

// BaseTable is the global, OS-allocated in-memory array of clusteroids,
// one entry per possible LSH fingerprint. Accesses that miss the base
// cache are charged as DRAM traffic on the backing store.
//
// Like OS-backed memory, the table is demand-paged: a directory holds one
// pointer per page of pageSize entries, and a page is allocated the
// first time a placement touches one of its fingerprints. A run seeds a
// few thousand fingerprints, so a 2^24-entry table costs its directory
// plus the pages actually used, and scans visit only those pages.
type BaseTable struct {
	pages []*basePage
	n     int
	mem   *memory.Store
}

// NewBaseTable returns an all-invalid table with 2^bits entries over mem.
func NewBaseTable(bits int, mem *memory.Store) *BaseTable {
	n := 1 << uint(bits)
	return &BaseTable{pages: make([]*basePage, (n+pageSize-1)>>pageBits), n: n, mem: mem}
}

// Release detaches the table from its backing store and drops its pages.
// The caller must not touch the table afterwards.
func (t *BaseTable) Release() {
	t.pages = nil
	t.mem = nil
}

// Len returns the number of table entries.
func (t *BaseTable) Len() int { return t.n }

// entry returns the record for fp without accounting, allocating its
// page on first touch.
//
//thesaurus:allocok demand paging: a page allocates on the first touch of one of its fingerprints and lives until Release
func (t *BaseTable) entry(fp lsh.Fingerprint) *BaseEntry {
	i := int(fp) & (t.n - 1)
	p := t.pages[i>>pageBits]
	if p == nil {
		p = new(basePage)
		t.pages[i>>pageBits] = p
	}
	return &p[i&(pageSize-1)]
}

// forEach calls fn for every valid entry in fingerprint order, visiting
// allocated pages only.
func (t *BaseTable) forEach(fn func(fp lsh.Fingerprint, e *BaseEntry)) {
	for pi, p := range t.pages {
		if p == nil {
			continue
		}
		for j := range p {
			if e := &p[j]; e.valid {
				fn(lsh.Fingerprint(pi<<pageBits|j), e)
			}
		}
	}
}

// chargeDRAM records one base-table DRAM access (a base-cache miss or a
// dirty base-cache victim writeback).
func (t *BaseTable) chargeDRAM() {
	// The table lives in ordinary memory; we reuse the store's counter
	// channel so the power model sees this traffic (addr is symbolic).
	t.mem.Read(0, memory.BaseTable)
}

// ActiveClusters returns the number of table entries with live references
// and the number of valid entries overall.
func (t *BaseTable) ActiveClusters() (live, valid int) {
	t.forEach(func(_ lsh.Fingerprint, e *BaseEntry) {
		valid++
		if e.Cntr > 0 {
			live++
		}
	})
	return live, valid
}

// ClusterSizes buckets the valid entries' reference counts into the
// paper's Figure 16 bins: <10, <50, <500, and 500+. Fractions are of the
// whole table.
func (t *BaseTable) ClusterSizes() (frac [4]float64) {
	var counts [4]int
	t.forEach(func(_ lsh.Fingerprint, e *BaseEntry) {
		switch {
		case e.Cntr == 0: // retired: no live references
		case e.Cntr < 10:
			counts[0]++
		case e.Cntr < 50:
			counts[1]++
		case e.Cntr < 500:
			counts[2]++
		default:
			counts[3]++
		}
	})
	for i, c := range counts {
		frac[i] = float64(c) / float64(t.n)
	}
	return frac
}

// baseCacheEntry is one way of the base cache: a cached clusteroid tagged
// by its fingerprint. The table remains authoritative (the cache is
// write-through), so entries carry no dirty state.
type baseCacheEntry struct {
	valid bool
	fp    lsh.Fingerprint
}

// BaseCache is the TLB-like LLC-side cache of recently used base-table
// entries: 64 sets × 8 ways, pseudo-LRU (§5.2.3). Only presence is
// modelled (the table is read directly on hit); the cache exists to decide
// which accesses pay DRAM latency/energy and which insertions must fall
// back to raw storage (§5.4.1, §6.4).
type BaseCache struct {
	sets    int
	ways    int
	entries []baseCacheEntry
	policy  []plru.Policy

	// ReadPath counts critical-path lookups (servicing reads of
	// base-only/base+diff lines); InsertPath counts off-critical-path
	// lookups during insertion (§6.4 distinguishes the two).
	ReadPath   stats.Counter
	InsertPath stats.Counter
	// LowPriorityInsert installs insertion-path fills at victim priority
	// (scan resistance; see Access). Enabled by default via the cache
	// configuration.
	LowPriorityInsert bool
}

// NewBaseCache builds a base cache with the given geometry.
func NewBaseCache(sets, ways int) *BaseCache {
	bc := &BaseCache{
		sets:    sets,
		ways:    ways,
		entries: make([]baseCacheEntry, sets*ways),
		policy:  make([]plru.Policy, sets),
	}
	for i := range bc.policy {
		bc.policy[i] = plru.NewTree(ways)
	}
	return bc
}

// Entries returns the total entry count (the Fig. 20 sweep variable).
func (bc *BaseCache) Entries() int { return bc.sets * bc.ways }

// StorageBytes returns the silicon cost of the base cache: each entry
// holds a 64-byte base plus tag and replacement metadata (Table 2 rounds
// this to 24+512 bits per entry).
func (bc *BaseCache) StorageBytes() int {
	const entryBits = 24 + 512
	return bc.Entries() * entryBits / 8
}

func (bc *BaseCache) setOf(fp lsh.Fingerprint) int {
	// Sign-quantized fingerprints of structured data have heavily
	// correlated bits (whole workloads can agree on several row signs),
	// so direct low-bit indexing piles the live fingerprints into a few
	// sets. A multiplicative hash — one XOR/multiply in hardware —
	// spreads them.
	h := uint32(fp) * 2654435761
	return int(h>>16) % bc.sets
}

// lookup probes for fp, updating recency on hit.
func (bc *BaseCache) lookup(fp lsh.Fingerprint) bool {
	set := bc.setOf(fp)
	base := set * bc.ways
	for w := 0; w < bc.ways; w++ {
		e := &bc.entries[base+w]
		if e.valid && e.fp == fp {
			bc.policy[set].Touch(w)
			return true
		}
	}
	return false
}

// fill installs fp, evicting the pseudo-LRU victim of its set. When
// promote is false the new entry is left at victim priority — it becomes
// the next line to evict unless a subsequent access touches it.
func (bc *BaseCache) fill(fp lsh.Fingerprint, promote bool) {
	set := bc.setOf(fp)
	base := set * bc.ways
	victim := -1
	for w := 0; w < bc.ways; w++ {
		if !bc.entries[base+w].valid {
			victim = w
			break
		}
	}
	if victim < 0 {
		victim = bc.policy[set].Victim()
	}
	bc.entries[base+victim] = baseCacheEntry{valid: true, fp: fp}
	if promote {
		bc.policy[set].Touch(victim)
	}
}

// Access models one base-cache access on the given path. On a miss the
// entry is fetched from the base table (one DRAM access) and installed.
// It reports whether the access hit.
//
// Read-path fills are promoted to MRU as in a conventional pseudo-LRU
// cache. Insertion-path fills are installed at *victim priority* — a
// standard TLB/scan-resistance refinement on top of the paper's plain
// pseudo-LRU management: high-entropy lines (hashed keys, compressed
// buffers) each touch a fresh fingerprint exactly once, and promoting
// those one-shot fills would thrash the clusteroids that the read path
// and the compressible insertions keep reusing. A fingerprint that is
// reused is promoted on its next (hitting) access. The effect of this
// choice is measured by the AblateBaseCachePriority experiment.
func (bc *BaseCache) Access(fp lsh.Fingerprint, t *BaseTable, readPath bool) bool {
	hit := bc.lookup(fp)
	if readPath {
		bc.ReadPath.Observe(hit)
	} else {
		bc.InsertPath.Observe(hit)
	}
	if !hit {
		t.chargeDRAM()
		bc.fill(fp, readPath || !bc.LowPriorityInsert)
	}
	return hit
}

// HitRate returns the combined hit rate across both paths (Fig. 20).
func (bc *BaseCache) HitRate() float64 {
	total := bc.ReadPath.Total + bc.InsertPath.Total
	if total == 0 {
		return 0
	}
	return float64(bc.ReadPath.Hits+bc.InsertPath.Hits) / float64(total)
}
