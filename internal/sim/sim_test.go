package sim

import (
	"reflect"
	"sort"
	"testing"

	"repro/internal/bdicache"
	"repro/internal/dedupcache"
	"repro/internal/dram"
	"repro/internal/ideal"
	"repro/internal/line"
	"repro/internal/llc"
	"repro/internal/memory"
	"repro/internal/thesaurus"
	"repro/internal/trace"
	"repro/internal/uncomp"
	"repro/internal/xrand"
)

// tinySystem shrinks L1/L2 so a small trace exercises all levels.
func tinySystem() SystemConfig {
	s := DefaultSystem()
	s.L1DSizeBytes = 2 << 10
	s.L2SizeBytes = 8 << 10
	return s
}

// synthTrace builds a random read/write trace over span lines with
// clustered content, pre-populating img.
func synthTrace(seed uint64, n, span int, img *memory.Store) []trace.Access {
	rng := xrand.New(seed)
	var protos [4]line.Line
	for p := range protos {
		for i := range protos[p] {
			protos[p][i] = byte(rng.Uint32())
		}
	}
	mk := func(i int, v uint32) line.Line {
		l := protos[i%4]
		l[0] = byte(v)
		l[1] = byte(i)
		return l
	}
	for i := 0; i < span; i++ {
		img.Poke(line.Addr(i)*line.Size, mk(i, 0))
	}
	version := map[int]uint32{}
	out := make([]trace.Access, n)
	for k := range out {
		i := rng.Intn(span)
		out[k].Addr = line.Addr(i) * line.Size
		out[k].Gap = uint32(rng.Intn(10))
		if rng.Bool(0.3) {
			out[k].Write = true
			version[i]++
			out[k].Data = mk(i, version[i])
		}
	}
	return out
}

func TestRecordFiltersHits(t *testing.T) {
	img := memory.NewStore()
	accesses := synthTrace(1, 20000, 64, img) // 64 lines: fits in L1
	rec := Record(trace.NewSliceSource(accesses), tinySystem(), img)
	if rec.CoreAccesses != 20000 {
		t.Fatalf("core accesses %d", rec.CoreAccesses)
	}
	// Working set fits L1 (2KB = 32 lines? 64 lines × 64B = 4KB > 2KB L1,
	// fits L2): LLC events must be a tiny fraction of accesses.
	if len(rec.Events) > 1000 {
		t.Fatalf("L1/L2 filtered too little: %d LLC events", len(rec.Events))
	}
	if rec.L1Hits+rec.L2Hits == 0 {
		t.Fatal("no upper-level hits")
	}
	if rec.Instructions == 0 || rec.LLCAPKI() <= 0 {
		t.Fatal("instruction accounting broken")
	}
}

// TestRecordEventDataConsistency: every event's payload must be a value
// the program actually held for that line — either its initial image or
// some store's data — never a fabricated mixture.
func TestRecordEventDataConsistency(t *testing.T) {
	img := memory.NewStore()
	accesses := synthTrace(2, 30000, 2048, img)
	// Collect the legal values per line before recording mutates img.
	valid := map[line.Addr]map[line.Line]bool{}
	record := func(a line.Addr, l line.Line) {
		if valid[a] == nil {
			valid[a] = map[line.Line]bool{}
		}
		valid[a][l] = true
	}
	for i := 0; i < 2048; i++ {
		a := line.Addr(i) * line.Size
		record(a, img.Peek(a))
	}
	for _, acc := range accesses {
		if acc.Write {
			record(acc.Addr, acc.Data)
		}
	}
	rec := Record(trace.NewSliceSource(accesses), tinySystem(), img)
	for i, ev := range rec.Events {
		if !valid[ev.Addr][ev.Data] {
			t.Fatalf("event %d carries a value the program never had for %#x", i, uint64(ev.Addr))
		}
	}
}

// TestReplayAllDesignsVerified: the end-to-end integration test — every
// LLC design replays the same stream with byte-exact verification on.
func TestReplayAllDesignsVerified(t *testing.T) {
	img := memory.NewStore()
	accesses := synthTrace(3, 60000, 4096, img)
	sys := tinySystem()
	rec := Record(trace.NewSliceSource(accesses), sys, img)
	if len(rec.Events) < 1000 {
		t.Fatalf("trace too filtered for a meaningful test: %d events", len(rec.Events))
	}

	builds := map[string]func(*memory.Store) (llc.Cache, error){
		"conv": func(m *memory.Store) (llc.Cache, error) {
			return uncomp.New("conv", uncomp.Config{SizeBytes: 64 << 10, Ways: 8, Policy: "plru"}, m), nil
		},
		"bdi": func(m *memory.Store) (llc.Cache, error) {
			return bdicache.New(bdicache.Config{Sets: 128, TagWays: 16, DataWays: 8}, m)
		},
		"dedup": func(m *memory.Store) (llc.Cache, error) {
			return dedupcache.New(dedupcache.Config{TagEntries: 2048, TagWays: 8, DataEntries: 700, HashEntries: 512}, m)
		},
		"thesaurus": func(m *memory.Store) (llc.Cache, error) {
			cfg := thesaurus.DefaultConfig()
			cfg.TagEntries = 2048
			cfg.DataSets = 90
			return thesaurus.New(cfg, m)
		},
		"ideal": func(m *memory.Store) (llc.Cache, error) {
			return ideal.New(ideal.Config{TagEntries: 2048, TagWays: 8, DataBytes: 45 << 10, Seed: 1}, m), nil
		},
	}
	opt := DefaultReplayOptions()
	opt.Verify = true
	names := make([]string, 0, len(builds))
	for name := range builds {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		st := memory.NewStore()
		c, err := builds[name](st)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		res, err := Replay(c, rec, st, sys, opt)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.LLCStats.Accesses() == 0 || res.IPC <= 0 || res.Cycles <= 0 {
			t.Fatalf("%s: degenerate result %+v", name, res)
		}
		if res.Samples == 0 || res.CompressionRatio < 0.99 {
			t.Fatalf("%s: footprint sampling broken: %+v", name, res)
		}
	}
}

// TestTimingMonotonicity: more misses must mean more cycles and lower IPC.
func TestTimingMonotonicity(t *testing.T) {
	img := memory.NewStore()
	accesses := synthTrace(4, 60000, 4096, img)
	sys := tinySystem()
	rec := Record(trace.NewSliceSource(accesses), sys, img)

	run := func(kb int) Result {
		st := memory.NewStore()
		c := uncomp.New("c", uncomp.Config{SizeBytes: kb << 10, Ways: 8, Policy: "plru"}, st)
		res, err := Replay(c, rec, st, sys, DefaultReplayOptions())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	small := run(16)
	big := run(256)
	if small.MPKI <= big.MPKI {
		t.Fatalf("MPKI not decreasing with capacity: %.2f vs %.2f", small.MPKI, big.MPKI)
	}
	if small.IPC >= big.IPC {
		t.Fatalf("IPC not increasing with capacity: %.3f vs %.3f", small.IPC, big.IPC)
	}
	if small.Cycles <= big.Cycles {
		t.Fatal("cycles not increasing with misses")
	}
}

// TestWarmupReset: stats must cover only the measurement window.
func TestWarmupReset(t *testing.T) {
	img := memory.NewStore()
	accesses := synthTrace(5, 40000, 2048, img)
	sys := tinySystem()
	rec := Record(trace.NewSliceSource(accesses), sys, img)
	st := memory.NewStore()
	c := uncomp.New("c", uncomp.Config{SizeBytes: 32 << 10, Ways: 8, Policy: "plru"}, st)
	opt := DefaultReplayOptions()
	opt.WarmupFraction = 0.5
	res, err := Replay(c, rec, st, sys, opt)
	if err != nil {
		t.Fatal(err)
	}
	// Measured accesses must be well under the whole stream.
	if res.LLCStats.Accesses() >= uint64(len(rec.Events)) {
		t.Fatalf("warmup not excluded: %d accesses of %d events",
			res.LLCStats.Accesses(), len(rec.Events))
	}
	if res.Instructions >= rec.Instructions {
		t.Fatal("instructions not windowed")
	}
}

// TestShardedWarmupBoundaries: the measurement window starts at event
// int(WarmupFraction·len(events)). The table pins the degenerate extremes
// (warmup == 0, warmup == len(events)), one event in, one event short of
// the end, and off-by-one sample-schedule boundaries around the last sample
// instant, against counts computed directly from the event stream. The
// name dates from when these fractions were also replayed over set-sharded
// caches; replay is serial now, and what stays of that comparison is that
// the resident lines at the end do not depend on where the reset fell.
func TestShardedWarmupBoundaries(t *testing.T) {
	img := memory.NewStore()
	accesses := synthTrace(9, 60000, 4096, img)
	sys := tinySystem()
	rec := Record(trace.NewSliceSource(accesses), sys, img)
	e := len(rec.Events)
	const sampleEvery = 64
	if e < 4*sampleEvery {
		t.Fatalf("trace too filtered for boundary cases: %d events", e)
	}
	cfg := uncomp.Config{SizeBytes: 64 << 10, Ways: 8, Policy: "plru"}

	// fracFor yields a WarmupFraction that truncates to exactly w:
	// (w+0.5)/e × e is within half an event of w+0.5, so int() floors it
	// to w for every e this trace produces.
	fracFor := func(w int) float64 { return (float64(w) + 0.5) / float64(e) }
	cases := []struct {
		name string
		frac float64
	}{
		{"zero", 0}, // reset fires on the first event
		{"all", 1},  // warmup == len(events): empty measurement window
		{"one", fracFor(1)},
		{"last", fracFor(e - 1)},
		// Around one SampleEvery stride before the end: the number of
		// post-warmup sample instants changes by one across these.
		{"stride-1", fracFor(e - sampleEvery - 1)},
		{"stride", fracFor(e - sampleEvery)},
		{"stride+1", fracFor(e - sampleEvery + 1)},
	}
	var firstLines any
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			warmup := int(tc.frac * float64(e))
			// Expected counts, taken from the event stream alone: the
			// sample instants are warmup, warmup+SampleEvery, … below e.
			// An empty window never crosses the reset point, so its LLC
			// counters still cover the whole stream.
			var wantSamples int
			var wantInstrs uint64
			first := 0
			if warmup < e {
				wantSamples = (e-1-warmup)/sampleEvery + 1
				first = warmup
			}
			for i := warmup; i < e; i++ {
				wantInstrs += rec.Events[i].Instrs
			}
			wantAccesses := uint64(e - first)

			st := memory.NewStore()
			c := uncomp.New("Baseline", cfg, st)
			opt := ReplayOptions{WarmupFraction: tc.frac, SampleEvery: sampleEvery, Verify: true}
			res, err := Replay(c, rec, st, sys, opt)
			if err != nil {
				t.Fatal(err)
			}
			lines := c.Release().Extra
			st.Release()
			if res.Samples != wantSamples {
				t.Errorf("warmup=%d/%d: %d samples, want %d", warmup, e, res.Samples, wantSamples)
			}
			if got := res.LLCStats.Reads + res.LLCStats.Writes; got != wantAccesses {
				t.Errorf("warmup=%d/%d: %d reads+writes, want %d", warmup, e, got, wantAccesses)
			}
			if res.Instructions != wantInstrs {
				t.Errorf("warmup=%d/%d: %d instructions, want %d", warmup, e, res.Instructions, wantInstrs)
			}
			if firstLines == nil {
				firstLines = lines
			} else if !reflect.DeepEqual(lines, firstLines) {
				t.Errorf("warmup=%d/%d: resident lines differ from warmup=0", warmup, e)
			}
		})
	}
}

// TestDRAMRates: rates are positive and DRAM ≤ LLC access rate.
func TestDRAMRates(t *testing.T) {
	img := memory.NewStore()
	accesses := synthTrace(6, 40000, 4096, img)
	sys := tinySystem()
	rec := Record(trace.NewSliceSource(accesses), sys, img)
	st := memory.NewStore()
	c := uncomp.New("c", uncomp.Config{SizeBytes: 16 << 10, Ways: 8, Policy: "plru"}, st)
	res, err := Replay(c, rec, st, sys, DefaultReplayOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.AccessRate(sys.Timing) <= 0 || res.DRAMRate(sys.Timing) <= 0 {
		t.Fatal("rates not positive")
	}
}

// TestInclusiveBackInvalidation: an L2 eviction with a dirty L1 copy must
// still produce the writeback (the value cannot be lost).
func TestInclusiveBackInvalidation(t *testing.T) {
	img := memory.NewStore()
	sys := tinySystem()
	var accesses []trace.Access
	var dirty line.Line
	dirty.SetWord(0, 0xD1237)
	// Write line 0 (lands dirty in L1), then sweep enough lines to evict
	// it from both levels.
	accesses = append(accesses, trace.Access{Addr: 0, Write: true, Data: dirty})
	for i := 1; i < 2000; i++ {
		accesses = append(accesses, trace.Access{Addr: line.Addr(i) * line.Size})
	}
	// Touch line 0 again: the fill data must be the dirty value.
	accesses = append(accesses, trace.Access{Addr: 0})
	rec := Record(trace.NewSliceSource(accesses), sys, img)
	found := false
	for _, ev := range rec.Events {
		if ev.Addr == 0 && ev.Kind == EventWrite && ev.Data == dirty {
			found = true
		}
	}
	if !found {
		t.Fatal("dirty L1 line lost during L2 eviction")
	}
	// The final read event must also see the dirty value.
	last := rec.Events[len(rec.Events)-1]
	if last.Addr != 0 || last.Kind != EventRead || last.Data != dirty {
		t.Fatalf("final read event %+v", last)
	}
}

// TestReplayWithDRAMModel: attaching the open-page model changes the
// effective memory latency coherently (streaming fills are cheaper than
// the flat constant, so IPC improves; totals stay positive).
func TestReplayWithDRAMModel(t *testing.T) {
	img := memory.NewStore()
	accesses := synthTrace(8, 60000, 4096, img)
	sys := tinySystem()
	rec := Record(trace.NewSliceSource(accesses), sys, img)

	run := func(withModel bool) Result {
		st := memory.NewStore()
		if withModel {
			st.AttachLatencyModel(dram.New(dram.DDR3_1066()))
		}
		c := uncomp.New("c", uncomp.Config{SizeBytes: 16 << 10, Ways: 8, Policy: "plru"}, st)
		res, err := Replay(c, rec, st, sys, DefaultReplayOptions())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	flat := run(false)
	modelled := run(true)
	// Same cache behaviour, different timing only.
	if flat.MPKI != modelled.MPKI {
		t.Fatalf("MPKI diverged: %v vs %v", flat.MPKI, modelled.MPKI)
	}
	if modelled.IPC <= 0 || modelled.Cycles <= 0 {
		t.Fatal("degenerate modelled timing")
	}
	if modelled.IPC == flat.IPC {
		t.Fatal("DRAM model had no timing effect")
	}
}
