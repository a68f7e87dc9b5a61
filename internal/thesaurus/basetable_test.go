package thesaurus

import (
	"testing"

	"repro/internal/line"
	"repro/internal/lsh"
	"repro/internal/memory"
)

func TestBaseTableClusterSizes(t *testing.T) {
	mem := memory.NewStore()
	tab := NewBaseTable(8, mem) // 256 entries
	if tab.Len() != 256 {
		t.Fatalf("Len = %d", tab.Len())
	}
	stamp := func(fp lsh.Fingerprint, cntr uint32) {
		e := tab.entry(fp)
		e.valid = true
		e.Cntr = cntr
	}
	stamp(1, 5)   // <10
	stamp(2, 30)  // <50
	stamp(3, 400) // <500
	stamp(5, 600) // 500+
	stamp(4, 0)   // cntr 0: retired, not counted
	f := tab.ClusterSizes()
	want := [4]float64{1.0 / 256, 1.0 / 256, 1.0 / 256, 1.0 / 256}
	if f != want {
		t.Fatalf("fractions %v, want %v", f, want)
	}
	live, valid := tab.ActiveClusters()
	if live != 4 || valid != 5 {
		t.Fatalf("live=%d valid=%d", live, valid)
	}
}

func TestBaseCacheHitAfterFill(t *testing.T) {
	mem := memory.NewStore()
	tab := NewBaseTable(12, mem)
	bc := NewBaseCache(64, 8)
	fp := lsh.Fingerprint(0x123)
	if bc.Access(fp, tab, false) {
		t.Fatal("cold access hit")
	}
	if !bc.Access(fp, tab, true) {
		t.Fatal("second access missed")
	}
	if bc.InsertPath.Total != 1 || bc.ReadPath.Total != 1 {
		t.Fatalf("path accounting: insert=%d read=%d", bc.InsertPath.Total, bc.ReadPath.Total)
	}
	// Each miss costs one base-table DRAM access.
	if got := mem.Stats().Counts[memory.BaseTable]; got != 1 {
		t.Fatalf("base table DRAM accesses = %d", got)
	}
}

func TestBaseCacheEviction(t *testing.T) {
	mem := memory.NewStore()
	tab := NewBaseTable(12, mem)
	bc := NewBaseCache(1, 2) // 2 entries total
	bc.Access(1, tab, false)
	bc.Access(2, tab, false)
	bc.Access(3, tab, false) // evicts one of 1,2
	hits := 0
	for _, fp := range []lsh.Fingerprint{1, 2, 3} {
		if bc.lookup(fp) {
			hits++
		}
	}
	if hits != 2 {
		t.Fatalf("expected 2 resident after eviction, got %d", hits)
	}
}

func TestBaseCacheGeometryAndCost(t *testing.T) {
	bc := NewBaseCache(64, 8)
	if bc.Entries() != 512 {
		t.Fatalf("Entries = %d", bc.Entries())
	}
	// Table 2: 512 entries × (24+512)b = 33.5KB ≈ 33KB.
	if kb := bc.StorageBytes() / 1024; kb != 33 {
		t.Fatalf("storage = %dKB, want 33", kb)
	}
}

func TestBaseCacheIndexSpreadsCorrelatedFingerprints(t *testing.T) {
	// Fingerprints sharing their low bits must not all land in one set.
	bc := NewBaseCache(64, 8)
	sets := map[int]bool{}
	for i := 0; i < 32; i++ {
		fp := lsh.Fingerprint(i << 6) // low 6 bits identical
		sets[bc.setOf(fp)] = true
	}
	if len(sets) < 16 {
		t.Fatalf("correlated fingerprints hit only %d sets", len(sets))
	}
}

func TestHitRateCombinesPaths(t *testing.T) {
	mem := memory.NewStore()
	tab := NewBaseTable(12, mem)
	bc := NewBaseCache(64, 8)
	bc.Access(7, tab, false) // miss
	bc.Access(7, tab, true)  // hit
	bc.Access(7, tab, true)  // hit
	if hr := bc.HitRate(); hr != 2.0/3 {
		t.Fatalf("hit rate %v", hr)
	}
}

func TestClusterSizesEmptyTable(t *testing.T) {
	tab := NewBaseTable(8, memory.NewStore())
	f := tab.ClusterSizes()
	if f != [4]float64{} {
		t.Fatalf("empty table fractions %v", f)
	}
}

// TestBaseRetirement drives the full cache: when a cluster's last member
// leaves, the next insertion for that fingerprint becomes the new base
// (§5.2.3).
func TestBaseRetirement(t *testing.T) {
	mem := memory.NewStore()
	cfg := smallConfig()
	c := MustNew(cfg, mem)

	var l line.Line
	for i := range l {
		l[i] = byte(i*3 + 1)
	}
	fp := c.hasher.Fingerprint(&l)

	// The very first insertion for a fingerprint misses the cold base
	// cache: the line is stored raw and the table entry is only seeded
	// (§5.4.1) — no reference taken.
	mem.Poke(0, l)
	c.Read(0)
	ent := c.table.entry(fp)
	if !ent.valid || ent.Cntr != 0 {
		t.Fatalf("table not seeded: valid=%v cntr=%d", ent.valid, ent.Cntr)
	}

	// The next insertion for the fingerprint hits the base cache, finds
	// cntr==0, and becomes the (new) clusteroid.
	l2 := l
	l2[0] ^= 1 // tiny change: same fingerprint with high probability
	if c.hasher.Fingerprint(&l2) != fp {
		t.Skip("perturbation changed the fingerprint under this seed")
	}
	mem.Poke(64, l2)
	c.Read(64)
	if ent.Cntr != 1 || ent.Base != l2 {
		t.Fatalf("clusteroid not installed: cntr=%d", ent.Cntr)
	}

	// Overwriting the member with different-cluster content releases the
	// reference; the base stays but is marked for replacement (cntr 0).
	var other line.Line
	for i := range other {
		other[i] = byte(255 - i)
	}
	c.Write(64, other)
	c.drainWrites(false) // the test inspects table state directly
	if ent.Cntr != 0 {
		t.Fatalf("refcount after leaving cluster: %d", ent.Cntr)
	}

	// The next same-fingerprint insertion replaces the retired base.
	l3 := l
	l3[1] ^= 1
	if c.hasher.Fingerprint(&l3) == fp {
		mem.Poke(128, l3)
		c.Read(128)
		if ent.Base != l3 || ent.Cntr != 1 {
			t.Fatalf("retired base not replaced (cntr=%d)", ent.Cntr)
		}
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
