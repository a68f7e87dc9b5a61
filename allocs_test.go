// Allocation-regression tests pinning the zero-allocation contract of the
// steady-state access paths (docs/performance.md): once a working set is
// resident and the per-cache scratch buffers have converged, Read/Write
// hits, LSH fingerprinting, and diff encode/decode round trips must not
// touch the heap. testing.AllocsPerRun makes the contract mechanical — a
// regression fails this test instead of showing up only as a slowly
// degrading campaign wall time.
package repro_test

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/bdicache"
	"repro/internal/diffenc"
	"repro/internal/line"
	"repro/internal/lsh"
	"repro/internal/memory"
	"repro/internal/thesaurus"
)

// residentLines is the steady-state working set: small enough that the
// default Thesaurus geometry (32768 tags, 11700 data entries) holds every
// line without data-array evictions, large enough to spread across sets.
const residentLines = 512

// residentLine builds line i at version v: a shared byte ramp with the
// index in the low bytes and the version in one more, so lines cluster
// under LSH, diffs stay small and size-stable across versions, and no two
// lines are identical.
func residentLine(i int, v uint32) line.Line {
	var l line.Line
	for j := range l {
		l[j] = byte(j)
	}
	l[0] = byte(i)
	l[1] = byte(i >> 8)
	l[2] = byte(v)
	return l
}

func addrOf(i int) line.Addr { return line.Addr(i * line.Size) }

// warmThesaurus installs the working set and runs one extra write pass at
// each version so every slot's delta-buffer capacity has converged.
func warmThesaurus(tb testing.TB) *thesaurus.Cache {
	tb.Helper()
	c := thesaurus.MustNew(thesaurus.DefaultConfig(), memory.NewStore())
	for v := uint32(0); v < 2; v++ {
		for i := 0; i < residentLines; i++ {
			c.Write(addrOf(i), residentLine(i, v))
		}
	}
	return c
}

func TestThesaurusReadHitAllocFree(t *testing.T) {
	c := warmThesaurus(t)
	allocs := testing.AllocsPerRun(50, func() {
		for i := 0; i < residentLines; i++ {
			if _, hit := c.Read(addrOf(i)); !hit {
				t.Fatal("steady-state read missed")
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("Read hit allocates: %.2f allocs per %d reads", allocs, residentLines)
	}
}

func TestThesaurusWriteHitAllocFree(t *testing.T) {
	c := warmThesaurus(t)
	v := uint32(0)
	allocs := testing.AllocsPerRun(50, func() {
		v ^= 1 // alternate content so re-encoding genuinely runs
		for i := 0; i < residentLines; i++ {
			if !c.Write(addrOf(i), residentLine(i, v)) {
				t.Fatal("steady-state write missed")
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("Write hit allocates: %.2f allocs per %d writes", allocs, residentLines)
	}
}

func TestThesaurusUnchangedWriteHitAllocFree(t *testing.T) {
	// Re-writes of identical content take the memoized-fingerprint path
	// (thesaurus.Cache.Write); it too must stay allocation-free.
	c := warmThesaurus(t)
	allocs := testing.AllocsPerRun(50, func() {
		for i := 0; i < residentLines; i++ {
			if !c.Write(addrOf(i), residentLine(i, 1)) {
				t.Fatal("steady-state write missed")
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("unchanged Write hit allocates: %.2f allocs per %d writes", allocs, residentLines)
	}
}

func TestBDICacheHitAllocFree(t *testing.T) {
	c := bdicache.MustNew(bdicache.DefaultConfig(), memory.NewStore())
	for v := uint32(0); v < 2; v++ {
		for i := 0; i < residentLines; i++ {
			c.Write(addrOf(i), residentLine(i, v))
		}
	}
	allocs := testing.AllocsPerRun(50, func() {
		for i := 0; i < residentLines; i++ {
			if _, hit := c.Read(addrOf(i)); !hit {
				t.Fatal("steady-state read missed")
			}
			if !c.Write(addrOf(i), residentLine(i, 0)) {
				t.Fatal("steady-state write missed")
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("BDI hit path allocates: %.2f allocs per %d accesses", allocs, 2*residentLines)
	}
}

func TestBaseTableLifecycleAllocContract(t *testing.T) {
	// The sweep lifecycle at the widest fingerprint: the base table is
	// demand-paged, so construction and release of a 2^24-entry table is
	// one allocation (the page directory, 8 MiB of pointers) and a cache
	// over a short trace pays only for the pages it touches. A dense
	// 72-byte-per-entry slab would be 1.2 GiB and fails both checks.
	//
	// The cycle is deterministic, but the process-wide counters also see
	// the runtime's own sporadic allocations, so each trial measures one
	// cycle and the least-disturbed trial is checked.
	mem := memory.NewStore()
	var before, after runtime.MemStats
	allocs, bytes := uint64(math.MaxUint64), uint64(math.MaxUint64)
	for trial := 0; trial < 10; trial++ {
		runtime.ReadMemStats(&before)
		thesaurus.NewBaseTable(lsh.MaxBits, mem).Release()
		runtime.ReadMemStats(&after)
		allocs = min(allocs, after.Mallocs-before.Mallocs)
		bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
	}
	if allocs != 1 {
		t.Fatalf("24-bit base-table cycle: %d allocs, want exactly 1 (the directory)", allocs)
	}
	if bytes > 8<<20 {
		t.Fatalf("24-bit base-table cycle allocates %d bytes, want <= 8 MiB", bytes)
	}

	cfg := thesaurus.DefaultConfig()
	cfg.LSH.Bits = lsh.MaxBits
	runtime.ReadMemStats(&before)
	c := thesaurus.MustNew(cfg, memory.NewStore())
	for v := uint32(0); v < 2; v++ {
		for i := 0; i < 4*residentLines; i++ {
			c.Write(line.Addr(i*line.Size), residentLine(i, v))
		}
	}
	c.Release()
	runtime.ReadMemStats(&after)
	if total := after.TotalAlloc - before.TotalAlloc; total >= 64<<20 {
		t.Fatalf("24-bit Thesaurus cache over %d writes allocated %d MiB, want < 64 MiB",
			8*residentLines, total>>20)
	}
}

func TestLSHFingerprintAllocFree(t *testing.T) {
	h := lsh.MustNew(lsh.DefaultConfig())
	l := residentLine(7, 0)
	var sink lsh.Fingerprint
	allocs := testing.AllocsPerRun(1000, func() {
		sink ^= h.Fingerprint(&l)
	})
	if allocs != 0 {
		t.Fatalf("Fingerprint allocates: %.2f allocs/op", allocs)
	}
	proj := make([]int, 0, h.Bits())
	allocs = testing.AllocsPerRun(1000, func() {
		proj = h.AppendProject(proj[:0], &l)
	})
	if allocs != 0 {
		t.Fatalf("AppendProject with capacity allocates: %.2f allocs/op", allocs)
	}
}

func TestDiffencRoundTripAllocFree(t *testing.T) {
	base := residentLine(3, 0)
	l := base
	l[5] += 9
	l[41] -= 3
	var enc diffenc.Encoded
	var out line.Line
	diffenc.EncodeInto(&enc, &l, &base) // converge Deltas capacity
	allocs := testing.AllocsPerRun(1000, func() {
		diffenc.EncodeInto(&enc, &l, &base)
		if err := diffenc.DecodeInto(&out, &enc, &base); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("diffenc round trip allocates: %.2f allocs/op", allocs)
	}
	if out != l {
		t.Fatal("round trip corrupted the line")
	}
}

func TestThesaurusEvictionCycleAllocFree(t *testing.T) {
	// Steady-state misses are as hot as hits: a working set 4× the tag
	// capacity cycles through a deliberately small geometry so every pass
	// evicts and re-installs most lines — tag victim selection, best-of-n
	// data victim sampling, startmap churn, and re-encoding included.
	// After a warm-up pass has populated the backing store's pages and
	// converged every scratch buffer, the whole eviction cycle must stay
	// off the heap.
	cfg := thesaurus.DefaultConfig()
	cfg.TagEntries = 512
	cfg.TagWays = 8
	cfg.DataSets = 32
	cfg.BaseCacheSets = 8
	c := thesaurus.MustNew(cfg, memory.NewStore())
	const cycling = 4 * 512 // 4× the tag capacity
	for v := uint32(0); v < 2; v++ {
		for i := 0; i < cycling; i++ {
			c.Write(addrOf(i), residentLine(i, v))
		}
	}
	v := uint32(0)
	allocs := testing.AllocsPerRun(20, func() {
		v ^= 1
		for i := 0; i < cycling; i++ {
			c.Write(addrOf(i), residentLine(i, v))
			c.Read(addrOf(i))
		}
	})
	if allocs != 0 {
		t.Fatalf("eviction cycle allocates: %.2f allocs per %d accesses", allocs, 2*cycling)
	}
	if s := c.Stats(); s.Writes == s.WriteHits || s.Writebacks == 0 {
		t.Fatalf("cycle did not evict (writes=%d hits=%d writebacks=%d); geometry too large for the pin",
			s.Writes, s.WriteHits, s.Writebacks)
	}
}

func TestThesaurusWriteDrainAllocFree(t *testing.T) {
	// The batched re-clustering path (§5.4.2): writes park in the write
	// buffer and replay through writeNow on a capacity drain or when state
	// is next observed. Both drain triggers — and the buffered bookkeeping
	// around them — must stay allocation-free in steady state.
	c := warmThesaurus(t)
	depth := thesaurus.DefaultWriteBufferDepth
	before := c.WriteBuffer()
	allocs := testing.AllocsPerRun(50, func() {
		// 2×depth writes force two capacity drains mid-loop…
		for i := 0; i < 2*depth; i++ {
			c.Write(addrOf(i), residentLine(i, uint32(i)&1))
		}
		// …and half a buffer more leaves residue for an observation drain.
		for i := 0; i < depth/2; i++ {
			c.Write(addrOf(i), residentLine(i, 0))
		}
		if _, hit := c.Read(addrOf(0)); !hit {
			t.Fatal("steady-state read missed")
		}
	})
	if allocs != 0 {
		t.Fatalf("write drain allocates: %.2f allocs per batch", allocs)
	}
	after := c.WriteBuffer()
	if after.CapacityDrains == before.CapacityDrains || after.ObservationDrains == before.ObservationDrains {
		t.Fatalf("drain triggers not exercised: %+v -> %+v", before, after)
	}
}
