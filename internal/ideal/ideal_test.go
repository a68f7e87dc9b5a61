package ideal

import (
	"testing"

	"repro/internal/line"
	"repro/internal/memory"
	"repro/internal/xrand"
)

func TestDedupSnapshotIdenticalLines(t *testing.T) {
	var l line.Line
	l.SetWord(0, 5)
	lines := []line.Line{l, l, l, l}
	if f := DedupSnapshot(lines); f != 4 {
		t.Fatalf("4 identical lines: factor %v", f)
	}
}

func TestDedupSnapshotUniqueLines(t *testing.T) {
	rng := xrand.New(1)
	var lines []line.Line
	for i := 0; i < 20; i++ {
		var l line.Line
		for j := 0; j < 8; j++ {
			l.SetWord(j, rng.Uint64())
		}
		lines = append(lines, l)
	}
	if f := DedupSnapshot(lines); f != 1 {
		t.Fatalf("unique lines: factor %v", f)
	}
}

func TestDedupSnapshotZerosAreFree(t *testing.T) {
	var l line.Line
	l.SetWord(0, 9)
	lines := []line.Line{{}, {}, {}, l}
	if f := DedupSnapshot(lines); f != 4 {
		t.Fatalf("3 zeros + 1 unique: factor %v", f)
	}
}

func TestDiffSnapshotNearDuplicates(t *testing.T) {
	var proto line.Line
	for i := range proto {
		proto[i] = byte(i + 1)
	}
	var lines []line.Line
	for i := 0; i < 32; i++ {
		l := proto
		l[i%8] ^= byte(i + 1)
		lines = append(lines, l)
	}
	f := DiffSnapshot(lines)
	// One raw line + 31 diffs of ~9-10 bytes each: factor ≈ 64×32/(64+31×10).
	if f < 3 {
		t.Fatalf("near-duplicates: factor %v", f)
	}
}

func TestDiffSnapshotRandomLines(t *testing.T) {
	rng := xrand.New(2)
	var lines []line.Line
	for i := 0; i < 32; i++ {
		var l line.Line
		for j := 0; j < 8; j++ {
			l.SetWord(j, rng.Uint64())
		}
		lines = append(lines, l)
	}
	f := DiffSnapshot(lines)
	if f > 1.2 {
		t.Fatalf("random lines compressed %vx", f)
	}
}

func TestDiffCDF(t *testing.T) {
	var proto line.Line
	for i := range proto {
		proto[i] = byte(i + 3)
	}
	lines := []line.Line{proto, proto}
	l := proto
	l[0] ^= 1
	l[1] ^= 1
	lines = append(lines, l)
	cdf := DiffCDF(lines)
	// Two exact duplicates at distance 0; the third at distance 2.
	if cdf[0] < 2.0/3-1e-9 {
		t.Fatalf("cdf[0] = %v", cdf[0])
	}
	if cdf[2] != 1 || cdf[64] != 1 {
		t.Fatalf("cdf tail: %v %v", cdf[2], cdf[64])
	}
	// Monotone.
	for i := 1; i <= 64; i++ {
		if cdf[i] < cdf[i-1] {
			t.Fatalf("cdf not monotone at %d", i)
		}
	}
}

func smallCacheConfig() Config {
	return Config{TagEntries: 128, TagWays: 8, DataBytes: 2048, Seed: 1}
}

func TestIdealCacheRoundTrip(t *testing.T) {
	mem := memory.NewStore()
	c := New(smallCacheConfig(), mem)
	rng := xrand.New(3)
	ref := map[line.Addr]line.Line{}
	for i := 0; i < 4000; i++ {
		addr := line.Addr(rng.Intn(256)) * line.Size
		if rng.Bool(0.3) {
			var l line.Line
			l.SetWord(0, rng.Uint64n(16))
			c.Write(addr, l)
			ref[addr] = l
			mem.Poke(addr, l)
		} else {
			got, _ := c.Read(addr)
			want, ok := ref[addr]
			if !ok {
				want = mem.Peek(addr)
			}
			if got != want {
				t.Fatalf("step %d: wrong data", i)
			}
		}
	}
}

func TestIdealCacheBudgetRespected(t *testing.T) {
	mem := memory.NewStore()
	cfg := smallCacheConfig()
	c := New(cfg, mem)
	rng := xrand.New(4)
	for i := 0; i < 3000; i++ {
		var l line.Line
		for j := 0; j < 8; j++ {
			l.SetWord(j, rng.Uint64())
		}
		c.Write(line.Addr(i)*line.Size, l)
		if fp := c.Footprint(); fp.DataBytesUsed > cfg.DataBytes {
			t.Fatalf("budget exceeded: %+v", fp)
		}
	}
}

func TestIdealCacheCompressesSimilarLines(t *testing.T) {
	mem := memory.NewStore()
	c := New(smallCacheConfig(), mem)
	var proto line.Line
	for i := range proto {
		proto[i] = byte(i * 5)
	}
	for i := 0; i < 64; i++ {
		l := proto
		l[0] = byte(i)
		mem.Poke(line.Addr(i)*line.Size, l)
		c.Read(line.Addr(i) * line.Size)
	}
	fp := c.Footprint()
	if r := fp.CompressionRatio(); r < 3 {
		t.Fatalf("ideal compressed only %.2fx", r)
	}
}

func TestDiffSnapshotEmpty(t *testing.T) {
	if DiffSnapshot(nil) != 1 || DedupSnapshot(nil) != 1 {
		t.Fatal("empty snapshot factors")
	}
}

// oracleLine draws one line of the differential tests' stream: mostly
// near-duplicates of a few prototypes (they share words, so word lists
// fill up and searches hit the candidate cap), plus zero lines, lines of
// one or two repeated words, sparse lines and random lines.
func oracleLine(rng *xrand.Rand, protos []line.Line) line.Line {
	var l line.Line
	switch k := rng.Intn(10); {
	case k < 5:
		l = protos[rng.Intn(len(protos))]
		for e := rng.Intn(12); e > 0; e-- {
			l[rng.Intn(line.Size)] = byte(rng.Uint64())
		}
	case k == 5:
		// the zero line
	case k == 6:
		a, b := rng.Uint64n(4), protos[0].Word(rng.Intn(line.WordsPerLine))
		for i := 0; i < line.WordsPerLine; i++ {
			if rng.Bool(0.5) {
				l.SetWord(i, a)
			} else {
				l.SetWord(i, b)
			}
		}
	case k == 7:
		for e := 1 + rng.Intn(6); e > 0; e-- {
			l[rng.Intn(line.Size)] = byte(rng.Uint64())
		}
	default:
		for i := 0; i < line.WordsPerLine; i++ {
			l.SetWord(i, rng.Uint64())
		}
	}
	return l
}

func oraclePrototypes(rng *xrand.Rand, n int) []line.Line {
	protos := make([]line.Line, n)
	for p := range protos {
		for i := 0; i < line.WordsPerLine; i++ {
			protos[p].SetWord(i, rng.Uint64())
		}
	}
	return protos
}

// TestCacheMatchesReference drives the online cache and the reference
// implementation (ref_test.go) with the same seeded access sequences —
// fills, new-line writes, rewrites of resident lines, and budget
// evictions — and requires identical per-insert costs, data, used
// bytes, statistics and footprints after every access.
func TestCacheMatchesReference(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		span int
		ops  int
	}{
		{"tight budget", Config{TagEntries: 256, TagWays: 8, DataBytes: 2048, Seed: 5}, 768, 20000},
		{"candidate cap", Config{TagEntries: 2048, TagWays: 8, DataBytes: 48 << 10, Seed: 6}, 4096, 20000},
	}
	for ci, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := xrand.New(uint64(100 + ci))
			protos := oraclePrototypes(rng, 5)
			mem, refMem := memory.NewStore(), memory.NewStore()
			for a := 0; a < tc.span; a++ {
				l := oracleLine(rng, protos)
				mem.Poke(line.Addr(a*line.Size), l)
				refMem.Poke(line.Addr(a*line.Size), l)
			}
			c, ref := New(tc.cfg, mem), newRefCache(tc.cfg, refMem)
			for op := 0; op < tc.ops; op++ {
				addr := line.Addr(rng.Intn(tc.span) * line.Size)
				if rng.Bool(0.4) {
					l := oracleLine(rng, protos)
					if hit, refHit := c.Write(addr, l), ref.Write(addr, l); hit != refHit {
						t.Fatalf("op %d: write hit %v, reference %v", op, hit, refHit)
					}
				} else {
					got, hit := c.Read(addr)
					want, refHit := ref.Read(addr)
					if got != want || hit != refHit {
						t.Fatalf("op %d: read (%v, hit %v), reference (%v, hit %v)", op, got, hit, want, refHit)
					}
				}
				e, _ := c.tags.Peek(addr)
				re, _ := ref.tags.Peek(addr)
				if (e == nil) != (re == nil) || e != nil && e.Payload != re.Payload.cost {
					t.Fatalf("op %d: resident cost differs from the reference", op)
				}
				if c.used != ref.used || c.Stats() != ref.Stats() || c.Footprint() != ref.Footprint() {
					t.Fatalf("op %d: used %d stats %+v footprint %+v; reference used %d stats %+v footprint %+v",
						op, c.used, c.Stats(), c.Footprint(), ref.used, ref.Stats(), ref.Footprint())
				}
			}
			if mem.Stats() != refMem.Stats() || !memory.PagesEqual(mem, refMem) {
				t.Fatal("backing stores diverged from the reference")
			}
		})
	}
}

// TestSnapshotsMatchReference requires DiffSnapshot and DiffCDF to equal
// the reference implementation exactly on seeded random snapshots.
func TestSnapshotsMatchReference(t *testing.T) {
	rng := xrand.New(7)
	for trial := 0; trial < 40; trial++ {
		protos := oraclePrototypes(rng, 1+rng.Intn(4))
		lines := make([]line.Line, rng.Intn(600))
		for i := range lines {
			lines[i] = oracleLine(rng, protos)
		}
		if got, want := DiffSnapshot(lines), refDiffSnapshot(lines); got != want {
			t.Fatalf("trial %d (%d lines): DiffSnapshot %v, reference %v", trial, len(lines), got, want)
		}
		if got, want := DiffCDF(lines), refDiffCDF(lines); got != want {
			t.Fatalf("trial %d (%d lines): DiffCDF %v, reference %v", trial, len(lines), got, want)
		}
	}
}

func TestReleaseFreesIndex(t *testing.T) {
	c := New(smallCacheConfig(), memory.NewStore())
	c.Read(0)
	c.Release()
	if c.tags != nil || c.ix != nil {
		t.Fatal("Release kept the tag array or the search index")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("second Release did not panic")
		}
	}()
	c.Release()
}
