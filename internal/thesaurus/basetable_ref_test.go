package thesaurus

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/line"
	"repro/internal/llc"
	"repro/internal/lsh"
	"repro/internal/memory"
	"repro/internal/xrand"
)

// tableModel is what driveTableTraffic needs of a base table: read and
// write the record for a fingerprint. The paged BaseTable and the map
// reference model both satisfy it.
type tableModel interface {
	Len() int
	get(fp lsh.Fingerprint) BaseEntry
	put(fp lsh.Fingerprint, e BaseEntry)
}

// pagedModel adapts the paged table to tableModel through entry(), the
// same accessor the cache uses (so every get/put may allocate a page).
type pagedModel struct{ *BaseTable }

func (m pagedModel) get(fp lsh.Fingerprint) BaseEntry    { return *m.entry(fp) }
func (m pagedModel) put(fp lsh.Fingerprint, e BaseEntry) { *m.entry(fp) = e }

// refTable is the reference model: a plain map holding the valid
// entries of a 2^bits-entry table.
type refTable struct {
	n       int
	entries map[lsh.Fingerprint]BaseEntry
}

func newRefTable(bits int) *refTable {
	return &refTable{n: 1 << uint(bits), entries: map[lsh.Fingerprint]BaseEntry{}}
}

func (r *refTable) Len() int { return r.n }

func (r *refTable) get(fp lsh.Fingerprint) BaseEntry {
	return r.entries[fp%lsh.Fingerprint(r.n)]
}

func (r *refTable) put(fp lsh.Fingerprint, e BaseEntry) {
	if e.valid {
		r.entries[fp%lsh.Fingerprint(r.n)] = e
	}
}

// Table operations, as the cache produces them: seed (or re-seed) a
// clusteroid, gain a reference, lose a reference, retire (the base stays
// valid with no live references).
const (
	opSeed = iota
	opRef
	opUnref
	opRetire
	numTableOps
)

// applyTableOp applies one operation to m. Reference changes only touch
// valid entries, and a reference is never dropped below zero, exactly as
// the cache's placement and releaseBase paths behave.
func applyTableOp(m tableModel, op int, fp lsh.Fingerprint, base *line.Line, cntr uint32) {
	e := m.get(fp)
	switch op {
	case opSeed:
		e = BaseEntry{valid: true, Base: *base, Cntr: cntr}
	case opRef:
		if !e.valid {
			return
		}
		e.Cntr++
	case opUnref:
		if !e.valid || e.Cntr == 0 {
			return
		}
		e.Cntr--
	case opRetire:
		if !e.valid {
			return
		}
		e.Cntr = 0
	}
	m.put(fp, e)
}

// driveTableTraffic applies a deterministic mixed seed/ref/unref/retire
// sequence of ops operations on fingerprints spread over the whole table:
// entries become clusteroids, gain and lose references, retire (cntr 0),
// and are re-seeded, touching every state the cache machinery produces.
func driveTableTraffic(m tableModel, ops int) {
	// Traffic concentrates on at most 2048 hot spots spread evenly over
	// the table (so entries are revisited even at 24 bits), each with its
	// two lower neighbours; spot 0's neighbours wrap to the last page.
	n := m.Len()
	spots := min(n, 2048)
	rng := xrand.New(0x9e3779b9)
	for i := 0; i < ops; i++ {
		fp := lsh.Fingerprint((rng.Intn(spots)*(n/spots) - rng.Intn(3)) & (n - 1))
		op := rng.Intn(numTableOps)
		var l line.Line
		if op == opSeed {
			for j := range l {
				l[j] = byte(rng.Uint32())
			}
		}
		applyTableOp(m, op, fp, &l, uint32(rng.Intn(700)))
	}
}

// tableView is everything the cache can observe of a table: the valid
// entries with their payloads, and the scan results.
type tableView struct {
	Entries map[lsh.Fingerprint]BaseEntry
	Live    int
	Total   int
	Fracs   [4]float64
}

// viewOf observes the paged table through its own scans.
func viewOf(tab *BaseTable) tableView {
	v := tableView{Entries: map[lsh.Fingerprint]BaseEntry{}}
	tab.forEach(func(fp lsh.Fingerprint, e *BaseEntry) {
		v.Entries[fp] = *e
	})
	v.Live, v.Total = tab.ActiveClusters()
	v.Fracs = tab.ClusterSizes()
	return v
}

// refView computes the same observation from the reference model by
// brute force.
func refView(r *refTable) tableView {
	v := tableView{Entries: map[lsh.Fingerprint]BaseEntry{}, Total: len(r.entries)}
	var counts [4]int
	for fp, e := range r.entries {
		v.Entries[fp] = e
		if e.Cntr == 0 {
			continue
		}
		v.Live++
		switch {
		case e.Cntr < 10:
			counts[0]++
		case e.Cntr < 50:
			counts[1]++
		case e.Cntr < 500:
			counts[2]++
		default:
			counts[3]++
		}
	}
	for i, c := range counts {
		v.Fracs[i] = float64(c) / float64(r.n)
	}
	return v
}

// checkAgainstRef fails t unless tab and ref are observationally
// identical: the same valid set with the same Base and Cntr (checked
// both through the table's scans and through entry() lookups of every
// reference key), and the same ActiveClusters and ClusterSizes.
func checkAgainstRef(t *testing.T, tab *BaseTable, ref *refTable) {
	t.Helper()
	got, want := viewOf(tab), refView(ref)
	if got.Live != want.Live || got.Total != want.Total {
		t.Fatalf("ActiveClusters = (%d, %d), reference (%d, %d)", got.Live, got.Total, want.Live, want.Total)
	}
	if got.Fracs != want.Fracs {
		t.Fatalf("ClusterSizes = %v, reference %v", got.Fracs, want.Fracs)
	}
	if !reflect.DeepEqual(got.Entries, want.Entries) {
		t.Fatalf("valid entries differ: table has %d, reference %d (or payloads differ)", len(got.Entries), len(want.Entries))
	}
	fps := make([]lsh.Fingerprint, 0, len(ref.entries))
	for fp := range ref.entries {
		fps = append(fps, fp)
	}
	slices.Sort(fps)
	for _, fp := range fps {
		if got, want := *tab.entry(fp), ref.entries[fp]; got != want {
			t.Fatalf("entry(%#x) = %+v, reference %+v", fp, got, want)
		}
	}
}

// TestBaseTableMatchesReference drives the paged table and the map
// reference model with identical traffic at a one-page table, the
// default 12-bit geometry and the 24-bit sweep extreme.
func TestBaseTableMatchesReference(t *testing.T) {
	for _, bits := range []int{4, 12, 24} {
		tab := NewBaseTable(bits, memory.NewStore())
		ref := newRefTable(bits)
		ops := min(4*tab.Len(), 1<<14)
		driveTableTraffic(pagedModel{tab}, ops)
		driveTableTraffic(ref, ops)
		checkAgainstRef(t, tab, ref)
		if bits == 24 && len(ref.entries) < 1000 {
			t.Fatalf("24-bit traffic seeded only %d entries", len(ref.entries))
		}
	}
}

// FuzzBaseTable decodes bytes into seed/ref/unref/retire operations on
// arbitrary fingerprints of a table of 1..lsh.MaxBits bits and compares
// the paged table with the reference model after the whole sequence.
// Each operation takes five bytes: the kind, three fingerprint bytes and
// a payload byte (the seeded line's fill and reference count).
func FuzzBaseTable(f *testing.F) {
	f.Add(uint8(3), []byte{0, 1, 0, 0, 7, 1, 1, 0, 0, 0, 2, 1, 0, 0, 0, 3, 1, 0, 0, 0})
	f.Add(uint8(11), []byte{0, 0xff, 0x0f, 0, 9, 0, 0x10, 0, 0, 1, 1, 0x10, 0, 0, 0, 3, 0xff, 0x0f, 0, 0})
	f.Add(uint8(23), []byte{0, 0xff, 0xff, 0xff, 200, 1, 0xff, 0xff, 0xff, 0, 0, 0, 0, 0x80, 5})
	f.Fuzz(func(t *testing.T, bitsByte uint8, data []byte) {
		bits := 1 + int(bitsByte)%lsh.MaxBits
		tab := NewBaseTable(bits, memory.NewStore())
		ref := newRefTable(bits)
		for i := 0; i+5 <= len(data); i += 5 {
			op := int(data[i]) % numTableOps
			fp := lsh.Fingerprint(data[i+1]) | lsh.Fingerprint(data[i+2])<<8 | lsh.Fingerprint(data[i+3])<<16
			var l line.Line
			for j := range l {
				l[j] = data[i+4] + byte(j)
			}
			applyTableOp(pagedModel{tab}, op, fp, &l, uint32(data[i+4]))
			applyTableOp(ref, op, fp, &l, uint32(data[i+4]))
		}
		checkAgainstRef(t, tab, ref)
	})
}

// TestCacheReleaseRecycleDeterminism drives the full cache twice, built
// back to back, and requires identical observable behaviour: nothing
// from the first cache's life leaks into the second.
func TestCacheReleaseRecycleDeterminism(t *testing.T) {
	run := func() (llc.Stats, *Snapshot) {
		mem := memory.NewStore()
		c := MustNew(smallConfig(), mem)
		seed := uint32(12345)
		next := func() uint32 {
			seed = seed*1664525 + 1013904223
			return seed
		}
		for i := 0; i < 2000; i++ {
			addr := line.Addr(next()%512) * 64
			if next()%3 == 0 {
				var l line.Line
				for j := 0; j < 8; j++ {
					l[j] = byte(next())
				}
				c.Write(addr, l)
			} else {
				c.Read(addr)
			}
		}
		if err := c.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		snap := c.Release()
		return snap.Stats, snap.Extra.(*Snapshot)
	}
	stats1, extra1 := run()
	stats2, extra2 := run()
	if !reflect.DeepEqual(stats1, stats2) {
		t.Fatal("second cache produced different cache stats")
	}
	if !reflect.DeepEqual(extra1, extra2) {
		t.Fatal("second cache produced different snapshot extras")
	}
}

// TestWideTableCacheClusterCounts runs a 24-bit Thesaurus cache under
// CheckInvariants and checks that the release snapshot's cluster counts
// equal a brute-force count over every one of the 2^24 fingerprints,
// read through the directory without allocating pages.
func TestWideTableCacheClusterCounts(t *testing.T) {
	cfg := smallConfig()
	cfg.LSH.Bits = lsh.MaxBits
	mem := memory.NewStore()
	c := MustNew(cfg, mem)
	rng := xrand.New(777)
	// Near-duplicates of a few template lines cluster; each template
	// lands on its own fingerprint of the wide table.
	var templates [8]line.Line
	for i := range templates {
		for j := range templates[i] {
			templates[i][j] = byte(rng.Uint32())
		}
	}
	for i := 0; i < 4000; i++ {
		addr := line.Addr(rng.Intn(1024) * line.Size)
		if rng.Bool(0.5) {
			l := templates[rng.Intn(len(templates))]
			l[rng.Intn(line.Size)] += byte(rng.Intn(3))
			c.Write(addr, l)
		} else {
			c.Read(addr)
		}
		if i%500 == 0 {
			if err := c.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	tab := c.BaseTable()
	var live, valid int
	for fp := 0; fp < tab.Len(); fp++ {
		p := tab.pages[fp>>pageBits]
		if p == nil {
			continue
		}
		if e := &p[fp%pageSize]; e.valid {
			valid++
			if e.Cntr > 0 {
				live++
			}
		}
	}
	if live == 0 {
		t.Fatal("trace produced no live clusters")
	}
	snap := c.Release().Extra.(*Snapshot)
	if snap.LiveClusters != live || snap.ValidClusters != valid {
		t.Fatalf("snapshot clusters live=%d valid=%d, brute count live=%d valid=%d",
			snap.LiveClusters, snap.ValidClusters, live, valid)
	}
}
