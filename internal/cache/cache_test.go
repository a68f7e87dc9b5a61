package cache

import (
	"testing"

	"repro/internal/line"
	"repro/internal/xrand"
)

func addr(i int) line.Addr { return line.Addr(i * line.Size) }

func TestConfigValidation(t *testing.T) {
	if err := (Config{Entries: 16, Ways: 4, Policy: "lru"}).Validate(); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []Config{
		{Entries: 0, Ways: 4},
		{Entries: 15, Ways: 4},
		{Entries: 16, Ways: 0},
	} {
		if bad.Validate() == nil {
			t.Errorf("config %+v validated", bad)
		}
	}
}

func TestLookupMissThenHit(t *testing.T) {
	a := New[int](Config{Entries: 16, Ways: 4, Policy: "lru"})
	if e, _ := a.Lookup(addr(1)); e != nil {
		t.Fatal("hit on empty cache")
	}
	e, idx, _, had := a.Insert(addr(1))
	if had {
		t.Fatal("eviction on empty set")
	}
	e.Payload = 42
	got, gotIdx := a.Lookup(addr(1))
	if got == nil || got.Payload != 42 || gotIdx != idx {
		t.Fatal("lookup after insert failed")
	}
	s := a.Stats()
	if s.Accesses != 2 || s.Hits != 1 || s.Misses != 1 {
		t.Fatalf("stats %+v", s)
	}
}

func TestInsertEvictsLRU(t *testing.T) {
	// 4 sets × 2 ways; fill one set and overflow it.
	a := New[int](Config{Entries: 8, Ways: 2, Policy: "lru"})
	// Addresses mapping to set 0: block numbers 0, 4, 8 (mod 4).
	a.Insert(addr(0))
	a.Insert(addr(4))
	a.Lookup(addr(0)) // 0 is now MRU; 4 is LRU
	_, _, evicted, had := a.Insert(addr(8))
	if !had || evicted.Addr != addr(4) {
		t.Fatalf("evicted %#x (had=%v), want %#x", uint64(evicted.Addr), had, uint64(addr(4)))
	}
}

func TestInsertResidentPanics(t *testing.T) {
	a := New[int](Config{Entries: 8, Ways: 2, Policy: "lru"})
	a.Insert(addr(1))
	defer func() {
		if recover() == nil {
			t.Fatal("double insert did not panic")
		}
	}()
	a.Insert(addr(1))
}

func TestDirtyEvictionCarriesPayload(t *testing.T) {
	a := New[string](Config{Entries: 2, Ways: 2, Policy: "lru"})
	e, _, _, _ := a.Insert(addr(0))
	e.Dirty = true
	e.Payload = "data0"
	a.Insert(addr(2)) // same set (2 mod 1... sets=1)
	_, _, evicted, had := a.Insert(addr(4))
	if !had || !evicted.Dirty || evicted.Payload != "data0" {
		t.Fatalf("evicted %+v", evicted)
	}
}

func TestInvalidateIndex(t *testing.T) {
	a := New[int](Config{Entries: 8, Ways: 2, Policy: "lru"})
	_, idx, _, _ := a.Insert(addr(3))
	old := a.InvalidateIndex(idx)
	if !old.Valid || old.Addr != addr(3) {
		t.Fatalf("invalidate returned %+v", old)
	}
	if e, _ := a.Lookup(addr(3)); e != nil {
		t.Fatal("invalidated entry still resident")
	}
}

func TestEntryAtStableIndices(t *testing.T) {
	a := New[int](Config{Entries: 32, Ways: 4, Policy: "plru"})
	_, idx, _, _ := a.Insert(addr(5))
	a.Insert(addr(13))
	a.Insert(addr(21))
	if got := a.EntryAt(idx); got.Addr != addr(5) {
		t.Fatal("stable index moved")
	}
}

func TestVictimPeekAndPolicyVictim(t *testing.T) {
	a := New[int](Config{Entries: 4, Ways: 2, Policy: "lru"})
	// Set 0 has a free way: VictimPeek invalid, PolicyVictimIndex -1.
	a.Insert(addr(0))
	if v := a.VictimPeek(addr(0)); v.Valid {
		t.Fatal("victim peek on non-full set")
	}
	if idx := a.PolicyVictimIndex(addr(0)); idx != -1 {
		t.Fatal("policy victim on non-full set")
	}
	a.Insert(addr(2))
	if v := a.VictimPeek(addr(4)); !v.Valid || v.Addr != addr(0) {
		t.Fatalf("victim peek %+v", v)
	}
	if idx := a.PolicyVictimIndex(addr(4)); a.EntryAt(idx).Addr != addr(0) {
		t.Fatal("policy victim index wrong")
	}
}

func TestValidVictimIndexExcludesSelf(t *testing.T) {
	a := New[int](Config{Entries: 4, Ways: 2, Policy: "lru"})
	a.Insert(addr(0))
	a.Insert(addr(2))
	a.Lookup(addr(2)) // 0 is LRU
	idx := a.ValidVictimIndex(addr(0))
	if idx < 0 || a.EntryAt(idx).Addr != addr(2) {
		t.Fatalf("ValidVictimIndex picked self or nothing (idx=%d)", idx)
	}
	// A set with only the excluded line: no victim.
	b := New[int](Config{Entries: 4, Ways: 2, Policy: "lru"})
	b.Insert(addr(0))
	if idx := b.ValidVictimIndex(addr(0)); idx != -1 {
		t.Fatal("victim found in singleton set of self")
	}
}

func TestForEachAndCountValid(t *testing.T) {
	a := New[int](Config{Entries: 16, Ways: 4, Policy: "lru"})
	for i := 0; i < 10; i++ {
		a.Insert(addr(i))
	}
	if a.CountValid() != 10 {
		t.Fatalf("CountValid = %d", a.CountValid())
	}
	n := 0
	a.ForEach(func(_ int, e *Entry[int]) {
		if !e.Valid {
			t.Fatal("ForEach visited invalid entry")
		}
		n++
	})
	if n != 10 {
		t.Fatalf("ForEach visited %d", n)
	}
}

// TestAgainstReferenceModel cross-checks hit/miss behaviour against a
// map+recency reference under a random workload.
func TestAgainstReferenceModel(t *testing.T) {
	const (
		entries = 64
		ways    = 4
		span    = 512
	)
	a := New[int](Config{Entries: entries, Ways: ways, Policy: "lru"})
	sets := entries / ways
	type refEntry struct {
		addr line.Addr
		used int
	}
	ref := make([][]refEntry, sets)
	clock := 0
	rng := xrand.New(31)

	for step := 0; step < 50000; step++ {
		clock++
		ad := addr(rng.Intn(span))
		set := int(ad.BlockNumber() % uint64(sets))
		// Reference lookup.
		refHit := false
		for i := range ref[set] {
			if ref[set][i].addr == ad {
				ref[set][i].used = clock
				refHit = true
				break
			}
		}
		e, _ := a.Lookup(ad)
		if (e != nil) != refHit {
			t.Fatalf("step %d: hit=%v ref=%v", step, e != nil, refHit)
		}
		if e == nil {
			a.Insert(ad)
			if len(ref[set]) < ways {
				ref[set] = append(ref[set], refEntry{ad, clock})
			} else {
				lru := 0
				for i := range ref[set] {
					if ref[set][i].used < ref[set][lru].used {
						lru = i
					}
				}
				ref[set][lru] = refEntry{ad, clock}
			}
		}
		// Occasionally invalidate a random entry, in the array and the
		// reference alike, so the resident count also falls.
		if step%7 == 0 {
			idx := rng.Intn(entries)
			if e := a.EntryAt(idx); e.Valid {
				s := idx / ways
				for i := range ref[s] {
					if ref[s][i].addr == e.Addr {
						ref[s] = append(ref[s][:i], ref[s][i+1:]...)
						break
					}
				}
			}
			a.InvalidateIndex(idx)
		}
		// The O(1) resident count agrees with a scan and the reference.
		scan, resident := 0, 0
		a.ForEach(func(int, *Entry[int]) { scan++ })
		for s := range ref {
			resident += len(ref[s])
		}
		if n := a.CountValid(); n != scan || n != resident {
			t.Fatalf("step %d: CountValid %d, scan %d, reference %d", step, n, scan, resident)
		}
	}
}

func TestResetStats(t *testing.T) {
	a := New[int](Config{Entries: 8, Ways: 2, Policy: "lru"})
	a.Lookup(addr(0))
	a.ResetStats()
	if a.Stats().Accesses != 0 {
		t.Fatal("stats not reset")
	}
}

func TestHitRate(t *testing.T) {
	var s Stats
	if s.HitRate() != 0 {
		t.Fatal("empty hit rate")
	}
	s = Stats{Accesses: 10, Hits: 4}
	if s.HitRate() != 0.4 {
		t.Fatal("hit rate math")
	}
}
