package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/artifact"
	"repro/internal/cluster"
	"repro/internal/diffenc"
	"repro/internal/harness"
	"repro/internal/ideal"
	"repro/internal/line"
	"repro/internal/lsh"
	"repro/internal/memory"
	"repro/internal/netq"
	"repro/internal/scheme"
	"repro/internal/sim"
	"repro/internal/thesaurus"
	"repro/internal/trace"
	"repro/internal/uncomp"
	"repro/internal/workload"
	"repro/internal/workq"
)

// span is one timed call into a layer, recorded by the benchmark around
// the layer's public function (the program itself is not instrumented).
type span struct {
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Parent int    `json:"parent"` // id of the enclosing span, 0 at top level
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps every span in memory; they are written out once the
// traced run ends. Span ids are 1-based indexes into spans.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func (tr *tracer) begin(name, layer string, parent int) int {
	now := time.Since(tr.t0).Nanoseconds()
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.spans = append(tr.spans, span{Name: name, Layer: layer, Parent: parent, Start: now})
	return len(tr.spans)
}

// end closes span id and returns its duration.
func (tr *tracer) end(id int) time.Duration {
	now := time.Since(tr.t0).Nanoseconds()
	tr.mu.Lock()
	defer tr.mu.Unlock()
	s := &tr.spans[id-1]
	s.End = now
	return time.Duration(s.End - s.Start)
}

// do runs fn as a top-level span of layer.
func (tr *tracer) do(name, layer string, fn func()) time.Duration {
	id := tr.begin(name, layer, 0)
	fn()
	return tr.end(id)
}

// selfByLayer sums top-level span time per layer. Top-level spans run
// one after another, so their sum never exceeds the traced wall time.
func (tr *tracer) selfByLayer() map[string]time.Duration {
	out := map[string]time.Duration{}
	for _, s := range tr.spans {
		if s.Parent == 0 {
			out[s.Layer] += time.Duration(s.End - s.Start)
		}
	}
	return out
}

func (tr *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range tr.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// seededProfile copies the named profile and, for seed ≠ 0, derives its
// access-stream seed from seed. Seed 0 keeps the calibrated seed, so the
// traced counts match the timed CLI reports. internal/workload is never
// modified: only the copy changes.
func seededProfile(name string, seed uint64) (workload.Profile, error) {
	p, err := workload.ProfileByName(name)
	if err != nil {
		return p, err
	}
	if seed != 0 {
		p.Seed = splitmix(p.Seed ^ splitmix(seed))
	}
	return p, nil
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// slug maps a registered design name to a metric-safe name segment:
// every character outside [A-Za-z0-9_.-] becomes '_' ("2x Baseline" →
// "2x_Baseline").
func slug(design string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_', r == '.', r == '-':
			return r
		}
		return '_'
	}, design)
}

// thesaurusConfigs are the CLI ablate experiment's sweep points
// (internal/experiments/ablate.go), in its order: best-of-n victims, LSH
// width, LSH sparsity, adaptive disable and base-cache fill priority.
func thesaurusConfigs() []thesaurus.Config {
	var out []thesaurus.Config
	add := func(edit func(*thesaurus.Config)) {
		c := thesaurus.DefaultConfig()
		edit(&c)
		out = append(out, c)
	}
	for _, n := range []int{1, 2, 4, 8} {
		add(func(c *thesaurus.Config) { c.VictimCandidates = n })
	}
	for _, b := range []int{8, 10, 12, 16, 20, 24} {
		add(func(c *thesaurus.Config) { c.LSH.Bits = b })
	}
	for _, nz := range []int{2, 4, 6, 10, 16} {
		add(func(c *thesaurus.Config) { c.LSH.NonZeros = nz })
	}
	add(func(c *thesaurus.Config) {})
	add(func(c *thesaurus.Config) { c.AdaptiveEpoch = 50_000 })
	add(func(c *thesaurus.Config) { c.BaseCachePlainLRU = true })
	add(func(c *thesaurus.Config) {})
	return out
}

// cell is one (profile, design) run of the campaign, optionally with a
// Thesaurus configuration override.
type cell struct {
	profile, design string
	cfg             *thesaurus.Config
}

// campaignCells lists the runs the workload's CLI campaign reports from.
func (w *benchWorkload) campaignCells() []cell {
	var out []cell
	fig13 := func() {
		for _, p := range benchProfiles {
			for _, d := range scheme.Names() {
				out = append(out, cell{profile: p, design: d})
			}
		}
	}
	ablate := func() {
		cfgs := thesaurusConfigs()
		for _, p := range benchProfiles {
			out = append(out, cell{profile: p, design: "Baseline"})
			for i := range cfgs {
				out = append(out, cell{profile: p, design: "Thesaurus", cfg: &cfgs[i]})
			}
		}
	}
	switch w.experiment {
	case "fig13":
		fig13()
	case "ablate":
		ablate()
	case "all":
		fig13()
		ablate()
	}
	return out
}

// lineSampleCap bounds the lines per profile the LSH and diff kernels
// are timed over.
const lineSampleCap = 32768

// snapshotCap mirrors Fig. 5's DBSCAN input cap.
const snapshotCap = 4096

// sink keeps kernel results live so the compiler cannot drop the calls.
var sink atomic.Uint64

// layerAcc accumulates one layer's busy time and work count.
type layerAcc struct {
	d    time.Duration
	work float64
}

func (a *layerAcc) add(d time.Duration, work float64) {
	a.d += d
	a.work += work
}

// nsPer returns busy nanoseconds per unit of work.
func (a layerAcc) nsPer() float64 {
	if a.work == 0 {
		return 0
	}
	return float64(a.d.Nanoseconds()) / a.work
}

// msPer returns busy milliseconds per unit of work.
func (a layerAcc) msPer() float64 { return a.nsPer() / 1e6 }

type designAcc struct {
	replay, release layerAcc
	hits, accesses  float64
}

// runTraced is the --trace 1 run. It first times the workload's CLI
// campaign once untraced (the reference for trace.overhead_frac), then
// drives each layer in-process under the benchmark's spans:
//
//  1. the in-process campaign: the campaign's cells through harness.Run
//     on a harness.ParMap pool (against the primed cache for all-warm,
//     which also runs its Ideal and DBSCAN snapshot analyses over the
//     Baseline cells). These use the calibrated seeds: harness.Run takes
//     a profile name;
//  2. per profile, with the --seed-derived stream seed: workload
//     generation, sim.Record, the artifact codec over the recording, the
//     memory staging pass, every registered design's build, replay and
//     release, the LSH and diff kernels over the recording's lines, and
//     the Ideal and DBSCAN snapshot analyses over the Baseline snapshot;
//  3. artifact: a temp-dir artifact.Cache storing and loading the cells'
//     outputs;
//  4. netq: one no-op loopback task per cell.
func runTraced(cfg config) (*result, error) {
	w := cfg.workload
	var t tally
	ms := map[string]metric{}
	put := func(name string, v float64, unit string) { ms[name] = metric{v, unit} }

	fmt.Printf("perfbench %s (traced, seed %d): %s\n", w.name, cfg.seed, w.why)
	env := hostEnv()
	fmt.Printf("  env nproc=%d GOMAXPROCS=%d GOARCH=%s go=%s load %.2f\n",
		env.NProc, env.GOMAXPROCS, env.GOARCH, env.GoVersion, loadavg())

	// Untraced reference campaign (primed first for all-warm).
	want, haveRef := referenceDigest(w.name)
	refCheck := func(r cliRun) checked {
		if !haveRef {
			return checked{r.err == nil, fmt.Sprintf("exit %d: %v", r.exitCode, r.err)}
		}
		return check(r, want)
	}
	primeDir := cacheDirFor(cfg.work, "prime", 0)
	if w.mode == modeWarm {
		t.add(refCheck(runCLI(cfg.bin, cfg.work, w.cliArgs(cfg.workers, primeDir))))
	}
	ref := runCLI(cfg.bin, cfg.work, w.cliArgs(cfg.workers, primeDir))
	t.add(refCheck(ref))
	if ref.err != nil {
		return nil, fmt.Errorf("%s: reference campaign failed: %v: %s", w.name, ref.err, lastLine(ref.stderr))
	}
	fmt.Printf("  untraced CLI campaign %.3fs\n", ref.wall)

	tr := &tracer{t0: time.Now()}
	if w.mode == modeWarm {
		c, err := artifact.Open(primeDir, 0)
		if err != nil {
			return nil, err
		}
		harness.UseArtifacts(c)
	}
	cells := w.campaignCells()
	outs, campaignWall, err := traceHarness(tr, cfg, put, cells)
	harness.UseArtifacts(nil)
	t.attempted += len(cells)
	if err != nil {
		t.failed++
		fmt.Printf("  FAILED: harness cells: %v\n", err)
	}
	if w.experiment == "all" {
		campaignWall += traceSnapshotAnalyses(tr, cfg.workers, cells, outs)
	}
	pass := newProfilePass()
	for _, name := range benchProfiles {
		if err := pass.run(tr, cfg, name, &t); err != nil {
			return nil, err
		}
	}
	pass.put(put)
	if err := traceRunArtifacts(tr, cfg, put, cells, outs); err != nil {
		return nil, err
	}
	if err := traceNetq(tr, put, len(cells)); err != nil {
		t.attempted++
		t.failed++
		fmt.Printf("  FAILED: netq: %v\n", err)
	}

	wall := time.Since(tr.t0)
	var covered time.Duration
	self := tr.selfByLayer()
	for _, d := range self {
		covered += d
	}
	put("trace.coverage_frac", covered.Seconds()/wall.Seconds(), "fraction")
	put("trace.overhead_frac", campaignWall.Seconds()/ref.wall-1, "fraction")
	fmt.Printf("  traced wall %.3fs; in-process campaign %.3fs vs untraced CLI %.3fs\n", wall.Seconds(), campaignWall.Seconds(), ref.wall)
	printShares(self, wall)

	path := filepath.Join(buildDir, "traces", fmt.Sprintf("%s-seed%d.jsonl", w.name, cfg.seed))
	if err := tr.write(path); err != nil {
		return nil, err
	}
	fmt.Printf("  spans written to %s\n", path)
	printMetrics(ms)
	return &result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: ms}, nil
}

// traceHarness runs the campaign's cells on the harness worker pool, one
// child span per cell, and records the pool metrics and the Thesaurus
// counters of the cells' snapshots.
func traceHarness(tr *tracer, cfg config, put func(string, float64, string), cells []cell) ([]*harness.RunOutput, time.Duration, error) {
	ro := harness.DefaultRunOptions()
	ro.Accesses = accesses()
	ro.Workers = cfg.workers
	cellMS := make([]float64, len(cells))
	parent := tr.begin("campaign cells", "harness", 0)
	outs, err := harness.ParMap(len(cells), cfg.workers, func(i int) (*harness.RunOutput, error) {
		c := cells[i]
		o := ro
		o.Thesaurus = c.cfg
		id := tr.begin(c.design+" "+c.profile, "harness", parent)
		out, err := harness.Run(c.profile, c.design, o)
		cellMS[i] = float64(tr.end(id).Nanoseconds()) / 1e6
		return out, err
	})
	wall := tr.end(parent)
	put("harness.cell_ms_p50", percentile(cellMS, 0.5), "ms")
	put("harness.cell_ms_p90", percentile(cellMS, 0.9), "ms")
	put("harness.slowest_cell_ms", maxOf(cellMS), "ms")
	put("harness.pool_busy_frac", sum(cellMS)/(float64(wall.Nanoseconds())/1e6*float64(cfg.workers)), "fraction")

	var placements, dataEv, rawMiss, inserts, kevents float64
	for i, out := range outs {
		snap, ok := out.Snap.Extra.(*thesaurus.Snapshot)
		if !ok || cells[i].design != "Thesaurus" {
			continue
		}
		placements += float64(snap.Extra.Placements)
		dataEv += float64(snap.Extra.DataEvictions)
		rawMiss += float64(snap.Extra.RawDueToBaseMiss)
		inserts += float64(snap.Extra.Insertions)
		kevents += float64(out.Res.LLCStats.Accesses()) / 1000
	}
	put("thesaurus.placements_per_kevent", ratio(placements, kevents), "1/kevent")
	put("thesaurus.data_evictions_per_kevent", ratio(dataEv, kevents), "1/kevent")
	put("thesaurus.raw_due_to_base_miss_frac", ratio(rawMiss, inserts), "fraction")
	return outs, wall, err
}

// traceSnapshotAnalyses runs the snapshot analyses the "all" campaign
// computes on top of its cells, over the cells' Baseline snapshots and on
// the same worker pool: Fig. 1's Ideal-Dedup/Ideal-Diff, Fig. 2's diff
// CDF (mcf) and Fig. 5's DBSCAN tuning. The pool is one top-level span of
// the harness layer; each analysis is a child span. It returns the
// pool's wall time.
func traceSnapshotAnalyses(tr *tracer, workers int, cells []cell, outs []*harness.RunOutput) time.Duration {
	var snaps []int
	for i, out := range outs {
		if _, ok := out.Snap.Extra.(*uncomp.Snapshot); ok && cells[i].design == "Baseline" && cells[i].cfg == nil {
			snaps = append(snaps, i)
		}
	}
	parent := tr.begin("snapshot analyses", "harness", 0)
	harness.ParMap(len(snaps), workers, func(j int) (struct{}, error) {
		c, lines := cells[snaps[j]], outs[snaps[j]].Snap.Extra.(*uncomp.Snapshot).Lines
		id := tr.begin("fig1 "+c.profile, "ideal", parent)
		v := uint64(ideal.DedupSnapshot(lines)*1000) + uint64(ideal.DiffSnapshot(lines)*1000)
		if c.profile == "mcf" {
			cdf := ideal.DiffCDF(lines)
			v += uint64(cdf[line.Size] * 1000)
		}
		tr.end(id)
		id = tr.begin("fig5 "+c.profile, "cluster", parent)
		params, _ := cluster.TuneEps(strideSample(lines, snapshotCap), 0.40, 2)
		tr.end(id)
		sink.Add(v + uint64(params.Eps))
		return struct{}{}, nil
	})
	return tr.end(parent)
}

// profilePass gathers the per-profile layer pass's totals.
type profilePass struct {
	gen, rec, stage, lsh, diff, ideal, cluster, enc, dec layerAcc
	events, accesses, artifactBytes                      float64
	designs                                              map[string]*designAcc
}

func newProfilePass() *profilePass {
	a := &profilePass{designs: map[string]*designAcc{}}
	for _, d := range scheme.Names() {
		a.designs[d] = &designAcc{}
	}
	return a
}

// run traces the layer pass over one profile.
func (a *profilePass) run(tr *tracer, cfg config, name string, t *tally) error {
	p, err := seededProfile(name, cfg.seed)
	if err != nil {
		return err
	}
	n := accesses()
	sys := sim.DefaultSystem()
	var g *workload.Generated
	var acc []trace.Access
	d := tr.do("generate "+name, "workload", func() {
		g = p.Generate(n)
		acc = trace.Collect(g.Stream, n)
	})
	a.gen.add(d, float64(len(acc)))

	var r *sim.Recorded
	d = tr.do("record "+name, "sim", func() {
		r = sim.Record(trace.NewSliceSource(acc), sys, g.Image)
	})
	a.rec.add(d, float64(len(acc)))
	a.events += float64(len(r.Events))
	a.accesses += float64(len(acc))
	acc, g = nil, nil

	var buf []byte
	d = tr.do("encode recording "+name, "artifact", func() {
		buf = artifact.Encode(nil, &artifact.File{Recorded: r})
	})
	a.enc.add(d, float64(len(buf)))
	var derr error
	d = tr.do("decode recording "+name, "artifact", func() {
		var f *artifact.File
		if f, derr = artifact.Decode(buf); derr == nil {
			sink.Add(uint64(len(f.Recorded.Events)))
		}
	})
	if derr != nil {
		return fmt.Errorf("artifact decode of %s: %w", name, derr)
	}
	a.dec.add(d, float64(len(buf)))
	a.artifactBytes += float64(len(buf))
	buf = nil

	d = tr.do("stage "+name, "memory", func() {
		st := memory.NewStore()
		st.Reserve(r.UniqueLines)
		for i := range r.Events {
			if ev := &r.Events[i]; ev.Kind == sim.EventRead {
				st.Poke(ev.Addr, ev.Data)
			}
		}
		st.Release()
	})
	a.stage.add(d, float64(len(r.Events)))

	var baseline []line.Line
	for _, dn := range scheme.Names() {
		da := a.designs[dn]
		st := memory.NewStore()
		id := tr.begin("replay "+dn+" "+name, "replay."+slug(dn), 0)
		lc, err := scheme.Build(dn, st)
		var res sim.Result
		if err == nil {
			res, err = sim.Replay(lc, r, st, sys, sim.DefaultReplayOptions())
		}
		d := tr.end(id)
		t.attempted++
		if err != nil {
			t.failed++
			fmt.Printf("  FAILED: replay %s/%s: %v\n", dn, name, err)
			continue
		}
		da.replay.add(d, float64(len(r.Events)))
		da.hits += float64(res.LLCStats.ReadHits + res.LLCStats.WriteHits)
		da.accesses += float64(res.LLCStats.Accesses())
		rd := tr.do("release "+dn+" "+name, "release", func() {
			snap := lc.Release()
			st.Release()
			if u, ok := snap.Extra.(*uncomp.Snapshot); ok && dn == "Baseline" {
				baseline = u.Lines
			}
		})
		da.release.add(rd, 1)
	}

	hasher := lsh.MustNew(thesaurus.DefaultConfig().LSH)
	lines := readLines(r, lineSampleCap)
	d = tr.do("fingerprint "+name, "lsh", func() {
		var v uint64
		for i := range lines {
			v += uint64(hasher.Fingerprint(&lines[i]))
		}
		sink.Add(v)
	})
	a.lsh.add(d, float64(len(lines)))
	d = tr.do("diff-encode "+name, "diffenc", func() {
		var e diffenc.Encoded
		var v uint64
		for i := 1; i < len(lines); i++ {
			diffenc.EncodeInto(&e, &lines[i], &lines[i-1])
			v += uint64(e.SizeBytes())
		}
		sink.Add(v)
	})
	a.diff.add(d, float64(max(len(lines)-1, 0)))

	d = tr.do("ideal snapshot "+name, "ideal", func() {
		sink.Add(uint64(ideal.DedupSnapshot(baseline) * 1000))
		sink.Add(uint64(ideal.DiffSnapshot(baseline) * 1000))
		cdf := ideal.DiffCDF(baseline)
		sink.Add(uint64(cdf[line.Size] * 1000))
	})
	a.ideal.add(d, 1)
	d = tr.do("tune eps "+name, "cluster", func() {
		params, _ := cluster.TuneEps(strideSample(baseline, snapshotCap), 0.40, 2)
		sink.Add(uint64(params.Eps))
	})
	a.cluster.add(d, 1)
	return nil
}

// put reports the pass's totals.
func (a *profilePass) put(put func(string, float64, string)) {
	put("workload.gen_ns_per_access", a.gen.nsPer(), "ns/access")
	put("sim.record_ns_per_access", a.rec.nsPer(), "ns/access")
	put("sim.llc_events_per_kaccess", ratio(a.events*1000, a.accesses), "events/kaccess")
	put("memory.stage_ns_per_event", a.stage.nsPer(), "ns/event")
	for _, dn := range scheme.Names() {
		da := a.designs[dn]
		s := slug(dn)
		put("replay."+s+".ns_per_event", da.replay.nsPer(), "ns/event")
		put("replay."+s+".release_ms", da.release.msPer(), "ms")
		put("replay."+s+".llc_hit_rate", ratio(da.hits, da.accesses), "fraction")
	}
	put("lsh.fingerprint_ns_per_line", a.lsh.nsPer(), "ns/line")
	put("diffenc.encode_ns_per_line", a.diff.nsPer(), "ns/line")
	put("ideal.snapshot_ms", a.ideal.msPer(), "ms")
	put("cluster.tune_eps_ms", a.cluster.msPer(), "ms")
	put("artifact.recorded_encode_mb_per_s", a.enc.work/1e6/a.enc.d.Seconds(), "MB/s")
	put("artifact.recorded_decode_mb_per_s", a.dec.work/1e6/a.dec.d.Seconds(), "MB/s")
	put("artifact.bytes_per_event", ratio(a.artifactBytes, a.events), "bytes/event")
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// readLines returns up to limit read-event lines of a recording, spread
// evenly over it.
func readLines(r *sim.Recorded, limit int) []line.Line {
	var out []line.Line
	for i := range r.Events {
		if r.Events[i].Kind == sim.EventRead {
			out = append(out, r.Events[i].Data)
		}
	}
	return strideSample(out, limit)
}

// strideSample keeps at most max evenly strided elements (Fig. 5's
// sampling of DBSCAN input).
func strideSample[T any](xs []T, max int) []T {
	if len(xs) <= max {
		return xs
	}
	stride := (len(xs) + max - 1) / max
	out := make([]T, 0, max)
	for i := 0; i < len(xs); i += stride {
		out = append(out, xs[i])
	}
	return out
}

// printShares prints each layer's share of the traced wall time, the
// figures to set beside a CLI CPU profile of the same workload.
func printShares(self map[string]time.Duration, wall time.Duration) {
	fmt.Println("  layer self time (share of traced wall):")
	for _, l := range sortedKeys(self) {
		fmt.Printf("    %-24s %8.3fs %6.1f%%\n", l, self[l].Seconds(), 100*self[l].Seconds()/wall.Seconds())
	}
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// traceRunArtifacts stores and loads every cell's output through a
// fresh artifact.Cache on a temp dir, probing each key first (a miss).
func traceRunArtifacts(tr *tracer, cfg config, put func(string, float64, string), cells []cell, outs []*harness.RunOutput) error {
	dir := filepath.Join(cfg.work, "trace-cache")
	c, err := artifact.Open(dir, 0)
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	var stores, loads []float64
	for i, out := range outs {
		key, err := cellKey(cells[i])
		if err != nil {
			return err
		}
		tr.do("probe run "+cells[i].design, "artifact", func() { c.LoadRunOutput(key) })
		art := &artifact.RunOutput{Res: out.Res, Snap: out.Snap, ClusterFracs: out.ClusterFracs}
		d := tr.do("store run "+cells[i].design, "artifact", func() { c.StoreRunOutput(key, art) })
		stores = append(stores, float64(d.Nanoseconds())/1e6)
		d = tr.do("load run "+cells[i].design, "artifact", func() { c.LoadRunOutput(key) })
		loads = append(loads, float64(d.Nanoseconds())/1e6)
	}
	st := c.Stats()
	put("artifact.run_store_ms_p50", percentile(stores, 0.5), "ms")
	put("artifact.run_load_ms_p50", percentile(loads, 0.5), "ms")
	put("artifact.hits", float64(st.Hits), "count")
	put("artifact.misses", float64(st.Misses), "count")
	put("artifact.corrupt", float64(st.Corrupt), "count")
	return nil
}

// cellKey is the run-level content key the CLI's cache files a cell
// under: the default-configuration key, or the key of the effective
// ablation configuration (custom runs do not sample Fig. 16).
func cellKey(c cell) (string, error) {
	ro := harness.DefaultRunOptions()
	ro.Accesses = accesses()
	if c.cfg == nil {
		return harness.DefaultRunContentKey(c.profile, c.design, ro)
	}
	p, err := workload.ProfileByName(c.profile)
	if err != nil {
		return "", err
	}
	eff := *c.cfg
	if eff.DiffSeriesWindow == 0 {
		eff.DiffSeriesWindow = 512
	}
	return artifact.RunOutputKey(p, sim.DefaultSystem(), c.design, ro.Accesses, ro.Replay, false, &eff), nil
}

// traceNetq drives a loopback netq server through one worker claiming
// and finishing n no-op tasks, then measures how long the server takes to
// return from Wait after the last completion.
func traceNetq(tr *tracer, put func(string, float64, string), n int) error {
	tasks := make([]workq.Task, n)
	for i := range tasks {
		tasks[i] = workq.Task{ID: i, Profile: "noop", Design: "noop", Accesses: 1}
	}
	var sum netq.Summary
	var rtt []float64
	var tail time.Duration
	var err error
	tr.do("loopback queue", "netq", func() {
		var srv *netq.Server
		srv, err = netq.NewServer("127.0.0.1:0", tasks, netq.ServerOptions{})
		if err != nil {
			return
		}
		defer srv.Close()
		type waitResult struct {
			sum netq.Summary
			at  time.Time
		}
		waited := make(chan waitResult, 1)
		go func() {
			s := srv.Wait(10*time.Second, nil)
			waited <- waitResult{s, time.Now()}
		}()
		var cl *netq.Client
		cl, err = netq.Dial(srv.Addr(), netq.ClientOptions{})
		if err != nil {
			<-waited
			return
		}
		defer cl.Close()
		var last time.Time
		for {
			t0 := time.Now()
			task, ok, cerr := cl.Claim()
			if cerr != nil {
				err = cerr
				break
			}
			if !ok {
				break // drained: Claim said goodbye
			}
			if ferr := cl.Finish(task, workq.Outcome{Key: fmt.Sprintf("%064x", task.ID)}); ferr != nil {
				err = ferr
				break
			}
			last = time.Now()
			rtt = append(rtt, float64(last.Sub(t0).Nanoseconds())/1e3)
		}
		cl.Close()
		done := <-waited
		sum, tail = done.sum, done.at.Sub(last)
	})
	if err != nil {
		return err
	}
	put("netq.claim_finish_us_p50", percentile(rtt, 0.5), "us")
	put("netq.claim_finish_us_p90", percentile(rtt, 0.9), "us")
	put("netq.drain_tail_ms", float64(tail.Nanoseconds())/1e6, "ms")
	put("netq.requeued", float64(sum.Requeues), "count")
	put("netq.failed", float64(sum.Failed), "count")
	if sum.Done != n {
		return fmt.Errorf("netq: %d of %d tasks done", sum.Done, n)
	}
	return nil
}
