// Command thesaurus is the experiment harness: it regenerates every table
// and figure of the paper's evaluation from the simulator and the
// synthetic SPEC CPU 2017 profiles.
//
// Usage:
//
//	thesaurus [flags] <experiment> [experiment ...]
//
// Experiments: fig1 fig2 fig5 fig13 fig14 fig15 fig16 fig17 fig18 fig19
// fig20 table1 table2 table3 table4 summary ablate all
//
// Flags:
//
//	-n N          accesses per benchmark profile (default 2,000,000)
//	-profiles csv comma-separated profile subset (default: all 22)
//	-quick        reduced trace length for a fast smoke run
//	-workers N    bound experiment concurrency (0 = GOMAXPROCS, 1 = serial)
//	-json         emit one machine-readable JSON document instead of text reports
//	-benchjson f  run the hot-path benchmarks and write BENCH_hotpath.json to f
//	-cpuprofile f write a pprof CPU profile of the whole campaign to f
//	-memprofile f write a pprof heap profile at exit to f
//	-cache-dir d       on-disk artifact cache directory (default: user cache dir)
//	-cache-max-bytes N artifact cache byte budget, LRU-evicted (0 = unlimited)
//	-no-cache          disable the on-disk artifact cache
//	-no-run-cache      disable the run-level artifact layer (recordings still cached)
//	-cache-verify      debug: regenerate and deep-compare every artifact hit
//	-distribute N      spawn N local worker processes that drain the design×profile
//	                   matrix over the TCP work queue (alone: served on loopback),
//	                   warming the cache before the in-process campaign
//	-serve host:port   serve the matrix as a TCP work queue (multi-host runs;
//	                   port 0 picks a free one, -addr-file publishes it)
//	-addr-file f       with -serve: write the bound address to f
//	-lease d           with -serve: task lease duration (default 2m)
//	-serve-grace d     with -serve: degrade to in-process recompute after this
//	                   long with no workers connected (default 15s)
//	-worker            worker mode: drain a coordinator's work queue (-connect)
//	-connect a         coordinator host:port or @file for -worker
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/artifact"
	"repro/internal/experiments"
	"repro/internal/harness"
	"repro/internal/workload"
)

// setupArtifacts installs the on-disk artifact cache and returns it (nil
// when disabled) so the coordinator can hand the exact same cache to
// worker processes and the netq transports can read and store raw
// artifact bytes. The cache is an accelerator only, so any setup failure
// just disables it with a note on stderr — stdout (the report
// byte-identity surface) is never touched.
func setupArtifacts(dir string, maxBytes int64, disabled, verify bool) *artifact.Cache {
	if disabled {
		return nil
	}
	if dir == "" {
		base, err := os.UserCacheDir()
		if err != nil {
			fmt.Fprintln(os.Stderr, "thesaurus: artifact cache disabled:", err)
			return nil
		}
		dir = base + "/thesaurus/artifacts"
	}
	c, err := artifact.Open(dir, maxBytes)
	if err != nil {
		fmt.Fprintln(os.Stderr, "thesaurus: artifact cache disabled:", err)
		return nil
	}
	harness.UseArtifacts(c)
	harness.SetArtifactVerify(verify)
	return c
}

// reportArtifactStats summarizes cache activity on stderr (stderr so the
// deterministic reports stay byte-identical across cache modes).
func reportArtifactStats() {
	st, ok := harness.ArtifactStats()
	if !ok {
		return
	}
	fmt.Fprintf(os.Stderr,
		"artifact cache: %d hits, %d misses, %d stores, %d corrupt, %d evicted, %.1f MiB loaded, %.1f MiB stored\n",
		st.Hits, st.Misses, st.Stores, st.Corrupt, st.Evictions,
		float64(st.BytesLoaded)/(1<<20), float64(st.BytesStored)/(1<<20))
	if st.TouchFailures > 0 {
		fmt.Fprintf(os.Stderr,
			"artifact cache: %d LRU touch failure(s) — entries age as if idle; check cache-dir permissions\n",
			st.TouchFailures)
	}
}

func main() {
	n := flag.Int("n", harness.DefaultAccesses, "accesses per benchmark profile")
	profilesFlag := flag.String("profiles", "", "comma-separated profile subset")
	quick := flag.Bool("quick", false, "reduced trace length (smoke run)")
	workers := flag.Int("workers", 0, "experiment concurrency (0 = GOMAXPROCS, 1 = serial)")
	jsonOut := flag.Bool("json", false, "emit one JSON document instead of text reports")
	benchjson := flag.String("benchjson", "", "run hot-path benchmarks and write JSON to file (\"-\" = stdout)")
	benchdiff := flag.String("benchdiff", "", "re-measure hot-path benchmarks and fail on regression vs this baseline JSON")
	benchhistory := flag.String("benchhistory", "", "with -benchdiff: append the fresh measurement to this JSONL file")
	benchnote := flag.String("benchnote", "", "with -benchhistory: free-form context recorded with the measurement")
	cpuprofile := flag.String("cpuprofile", "", "write pprof CPU profile to file")
	memprofile := flag.String("memprofile", "", "write pprof heap profile to file")
	cacheDir := flag.String("cache-dir", "", "artifact cache directory (default: user cache dir)")
	cacheMax := flag.Int64("cache-max-bytes", 0, "artifact cache byte budget, LRU-evicted (0 = unlimited)")
	noCache := flag.Bool("no-cache", false, "disable the on-disk artifact cache")
	noRunCache := flag.Bool("no-run-cache", false, "disable the run-level artifact layer (recordings still cached)")
	cacheVerify := flag.Bool("cache-verify", false, "debug: regenerate and deep-compare every artifact hit")
	distributeN := flag.Int("distribute", 0, "spawn N local workers draining the design×profile matrix before the campaign (without -serve: on a loopback queue)")
	worker := flag.Bool("worker", false, "worker mode: drain a coordinator's work queue (-connect)")
	connect := flag.String("connect", "", "coordinator host:port, or @file naming a file holding it (worker mode)")
	serveAddr := flag.String("serve", "", "host:port to serve the campaign's TCP work queue on before the in-process campaign (port 0 picks one)")
	addrFile := flag.String("addr-file", "", "with -serve: publish the bound address to this file (for -connect @file)")
	leaseDur := flag.Duration("lease", 2*time.Minute, "with -serve: task lease duration (re-queued when a worker stops heartbeating)")
	serveGrace := flag.Duration("serve-grace", 15*time.Second, "with -serve: give up and recompute in-process after this long with no workers connected")
	flag.Parse()

	if *benchjson != "" {
		if err := runBenchJSON(*benchjson); err != nil {
			fail(err)
		}
		return
	}
	if *benchdiff != "" {
		if err := runBenchDiff(*benchdiff, *benchhistory, *benchnote); err != nil {
			fail(err)
		}
		return
	}

	cache := setupArtifacts(*cacheDir, *cacheMax, *noCache, *cacheVerify)
	harness.SetRunCache(!*noRunCache)

	modes := modeFlags{worker: *worker, connect: *connect, serve: *serveAddr,
		distribute: *distributeN, cache: cache != nil}
	if err := modes.check(); err != nil {
		fail(err)
	}
	if *worker {
		// Workers do not print their own cache stats: the netq goodbye
		// frame carries them back and the coordinator prints one merged
		// line instead of N interleaved.
		if err := runWorkerNet(*connect, cache); err != nil {
			fail(err)
		}
		return
	}
	defer reportArtifactStats()

	opt := experiments.Default()
	opt.Accesses = *n
	if *quick {
		opt = experiments.Quick()
	}
	opt.Workers = *workers
	if *profilesFlag != "" {
		opt.Profiles = strings.Split(*profilesFlag, ",")
		for _, p := range opt.Profiles {
			if _, err := workload.ProfileByName(p); err != nil {
				fail(err)
			}
		}
	}

	args := flag.Args()
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, "usage: thesaurus [flags] <experiment> [...]")
		fmt.Fprintln(os.Stderr, "experiments: fig1 fig2 fig5 fig13 fig14 fig15 fig16 fig17 fig18 fig19 fig20")
		fmt.Fprintln(os.Stderr, "             table1 table2 table3 table4 summary ablate all")
		os.Exit(2)
	}
	if len(args) == 1 && args[0] == "all" {
		args = []string{"table1", "table2", "fig1", "fig2", "fig5", "fig13", "table3", "fig14",
			"table4", "fig15", "fig16", "fig17", "fig18", "fig19", "fig20", "ablate"}
	}

	wa := workerArgs{
		cacheMax:   *cacheMax,
		noRunCache: *noRunCache,
		verify:     *cacheVerify,
	}
	if cache != nil {
		wa.cacheDir = cache.Dir()
	}
	if *serveAddr != "" || *distributeN > 0 {
		// Pre-warm the cache over the TCP work queue (with -serve, workers
		// connect from anywhere; -distribute N spawns N local ones, on a
		// loopback-only queue when -serve is absent); the campaign below
		// then assembles the report in-process from warm artifacts, so its
		// bytes are identical to a serial run by construction.
		if err := serveCampaign(*serveAddr, *addrFile, *leaseDur, *serveGrace,
			*distributeN, wa, opt, cache); err != nil {
			fail(err)
		}
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fail(err)
		}
		defer pprof.StopCPUProfile()
	}

	if *jsonOut {
		// One deterministic document for the whole campaign; the timing
		// footer is deliberately absent (wall-clock must not reach the
		// output the byte-identity contract covers).
		doc, err := experiments.CampaignJSON(args, opt)
		if err != nil {
			fail(err)
		}
		os.Stdout.Write(doc)
		return
	}

	type timing struct {
		exp string
		d   time.Duration
	}
	var timings []timing
	campaign := time.Now()
	for _, exp := range args {
		t0 := time.Now()
		out, err := run(exp, opt)
		if err != nil {
			fail(err)
		}
		fmt.Print(out)
		d := time.Since(t0)
		timings = append(timings, timing{exp, d})
		fmt.Printf("[%s completed in %.1fs]\n", exp, d.Seconds())
	}
	if len(timings) > 1 {
		fmt.Printf("\nCampaign timing (workers=%d, GOMAXPROCS=%d)\n", *workers, runtime.GOMAXPROCS(0))
		fmt.Println("==========================================")
		for _, t := range timings {
			fmt.Printf("%-10s %8.1fs\n", t.exp, t.d.Seconds())
		}
		fmt.Printf("%-10s %8.1fs\n", "total", time.Since(campaign).Seconds())
	}

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fail(err)
		}
	}
}

func run(exp string, opt experiments.Options) (string, error) {
	switch exp {
	case "summary":
		r, err := experiments.Fig13(opt)
		if err != nil {
			return "", err
		}
		var b strings.Builder
		fmt.Fprintf(&b, "\nHeadline comparison (geomeans over %d benchmarks)\n", len(r.Profiles))
		fmt.Fprintf(&b, "%-14s %12s %12s %12s\n", "design", "compression", "MPKI (S)", "IPC (S)")
		for _, d := range r.Designs {
			fmt.Fprintf(&b, "%-14s %11.2fx %12.3f %12.3f\n",
				d, r.GeomeanCR[d], r.GeomeanMPKIS[d], r.GeomeanIPCS[d])
		}
		return b.String(), nil
	case "table1":
		return experiments.Table1Report(), nil
	case "table2":
		return experiments.Table2Report(), nil
	case "table3":
		return experiments.Table3Report(), nil
	case "table4":
		return experiments.Table4Report(), nil
	case "fig1":
		r, err := experiments.Fig1(opt)
		return reportOf(r, err)
	case "fig2":
		r, err := experiments.Fig2("mcf", opt)
		return reportOf(r, err)
	case "fig5":
		r, err := experiments.Fig5(opt)
		return reportOf(r, err)
	case "fig13":
		r, err := experiments.Fig13(opt)
		return reportOf(r, err)
	case "fig14":
		r, err := experiments.Fig14(opt)
		return reportOf(r, err)
	case "fig15":
		r, err := experiments.Fig15(opt)
		return reportOf(r, err)
	case "fig16":
		r, err := experiments.Fig16(opt)
		return reportOf(r, err)
	case "fig17":
		r, err := experiments.Fig17(opt)
		return reportOf(r, err)
	case "fig18":
		r, err := experiments.Fig18(opt)
		return reportOf(r, err)
	case "fig19":
		o := opt
		o.Profiles = nil // Fig. 19 uses its own default selection
		if len(opt.Profiles) > 0 {
			o.Profiles = opt.Profiles
		}
		r, err := experiments.Fig19(o)
		return reportOf(r, err)
	case "fig20":
		r, err := experiments.Fig20(opt)
		return reportOf(r, err)
	case "ablate":
		var b strings.Builder
		for _, f := range []func(experiments.Options) (*experiments.AblationResult, error){
			experiments.AblateVictimCandidates,
			experiments.AblateLSHBits,
			experiments.AblateLSHSparsity,
			experiments.AblateAdaptive,
			experiments.AblateBaseCachePriority,
		} {
			r, err := f(opt)
			if err != nil {
				return "", err
			}
			b.WriteString(r.Report())
		}
		return b.String(), nil
	default:
		return "", fmt.Errorf("unknown experiment %q", exp)
	}
}

// modeFlags is the slice of the command line that picks how a campaign
// runs: in-process, as a work-queue coordinator, or as a worker.
type modeFlags struct {
	worker     bool
	connect    string
	serve      string
	distribute int
	cache      bool // the artifact cache is installed
}

// check rejects the combinations that cannot run, naming the flag the
// user passed. Coordinators need the artifact cache because it is the
// channel workers' results come back through.
func (m modeFlags) check() error {
	switch {
	case m.worker && m.connect == "":
		return errors.New("-worker requires -connect")
	case m.worker:
		return nil
	case m.serve != "" && !m.cache:
		return errors.New("-serve requires the artifact cache (-no-cache is incompatible)")
	case m.distribute > 0 && !m.cache:
		return errors.New("-distribute requires the artifact cache (-no-cache is incompatible)")
	}
	return nil
}

// reporter is any experiment result that renders itself.
type reporter interface{ Report() string }

func reportOf(r reporter, err error) (string, error) {
	if err != nil {
		return "", err
	}
	return r.Report(), nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "thesaurus:", err)
	os.Exit(1)
}
