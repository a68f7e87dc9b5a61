package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// runTimeout bounds one CLI campaign, so a hung run fails the benchmark
// instead of outliving its time budget.
const runTimeout = 120 * time.Second

// minSamples is the fewest timed campaigns a run reports a median over,
// even when they overrun --seconds.
const minSamples = 5

// cliRun is one thesaurus process (tree) and what it cost.
type cliRun struct {
	wall     float64 // seconds
	cpu      float64 // user+sys seconds of the process and its reaped children
	maxRSS   float64 // MiB, largest of the process and its reaped children
	stdout   []byte
	stderr   []byte
	err      error
	exitCode int
}

// runCLI runs the thesaurus binary once. The child gets its own process
// group (killed as a whole on timeout, so netq workers never outlive it)
// and an environment whose HOME, XDG_CACHE_HOME and TMPDIR point inside
// dir, so nothing can reach the user's default artifact cache.
func runCLI(bin, dir string, args []string) cliRun {
	ctx, cancel := context.WithTimeout(context.Background(), runTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, bin, args...)
	cmd.Dir = dir
	cmd.Env = isolatedEnv(dir)
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	cmd.Cancel = func() error { return syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL) }
	cmd.WaitDelay = 5 * time.Second
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	t0 := time.Now()
	err := cmd.Run()
	r := cliRun{wall: time.Since(t0).Seconds(), stdout: out.Bytes(), stderr: errb.Bytes(), err: err}
	if ps := cmd.ProcessState; ps != nil {
		r.exitCode = ps.ExitCode()
		if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
			r.cpu = tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
			r.maxRSS = float64(ru.Maxrss) / 1024 // Linux reports KiB
		}
	}
	return r
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

// isolatedEnv is the parent environment with every home/cache/temp
// location redirected into dir.
func isolatedEnv(dir string) []string {
	env := []string{"HOME=" + dir, "XDG_CACHE_HOME=" + filepath.Join(dir, "xdg-cache"), "TMPDIR=" + dir}
	for _, kv := range os.Environ() {
		k, _, _ := strings.Cut(kv, "=")
		switch k {
		case "HOME", "XDG_CACHE_HOME", "TMPDIR":
			continue
		}
		env = append(env, kv)
	}
	return env
}

// checked is the outcome of the report check on one run.
type checked struct {
	ok     bool
	reason string
}

// check accepts a run only when it exited 0 and its normalized report
// digest equals the reference.
func check(r cliRun, want string) checked {
	if r.err != nil {
		return checked{false, fmt.Sprintf("exit %d: %v: %s", r.exitCode, r.err, lastLine(r.stderr))}
	}
	if got := reportDigest(r.stdout); got != want {
		return checked{false, fmt.Sprintf("report digest %s, want %s", short(got), short(want))}
	}
	return checked{true, ""}
}

func short(d string) string {
	if len(d) > 12 {
		return d[:12]
	}
	return d
}

func lastLine(b []byte) string {
	s := strings.TrimSpace(string(b))
	if i := strings.LastIndexByte(s, '\n'); i >= 0 {
		s = s[i+1:]
	}
	return s
}

// tally counts attempted and failed runs; failed_frac is their ratio.
type tally struct{ attempted, failed int }

func (t *tally) add(c checked) {
	t.attempted++
	if !c.ok {
		t.failed++
		fmt.Printf("  FAILED: %s\n", c.reason)
	}
}

// envRecord is the host state a result is read against.
type envRecord struct {
	NProc, GOMAXPROCS int
	GOARCH, GoVersion string
}

func hostEnv() envRecord {
	return envRecord{runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.GOARCH, runtime.Version()}
}

// stealSeconds returns the CPU time the hypervisor gave other guests
// (the steal column of /proc/stat), or -1 where it is unavailable.
func stealSeconds() float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return -1
	}
	first, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(first)
	if len(f) < 9 || f[0] != "cpu" {
		return -1
	}
	v, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return -1
	}
	return v / 100 // USER_HZ
}

// loadavg returns the 1-minute load average, or -1 where /proc is absent.
func loadavg() float64 {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return -1
	}
	f := strings.Fields(string(b))
	if len(f) == 0 {
		return -1
	}
	v, err := strconv.ParseFloat(f[0], 64)
	if err != nil {
		return -1
	}
	return v
}

var artifactHits = regexp.MustCompile(`(?m)^artifact cache: (\d+) hits`)

// hitsOf parses the run-level artifact hit count from the CLI's stderr
// summary (0 when absent).
func hitsOf(stderr []byte) int {
	m := artifactHits.FindSubmatch(stderr)
	if m == nil {
		return 0
	}
	n, _ := strconv.Atoi(string(m[1]))
	return n
}

// runTimed is the --trace 0 run: set-up repeated setups times, then
// campaigns until cfg.seconds have been measured.
func runTimed(cfg config) (*result, error) {
	w := cfg.workload
	ref, haveRef := referenceDigest(w.name)
	env := hostEnv()
	fmt.Printf("perfbench %s: %s\n", w.name, w.why)
	fmt.Printf("  env nproc=%d GOMAXPROCS=%d GOARCH=%s go=%s workers=%d accesses/profile=%d profiles=%s\n",
		env.NProc, env.GOMAXPROCS, env.GOARCH, env.GoVersion, cfg.workers, accesses(), strings.Join(benchProfiles, ","))
	fmt.Printf("  timed runs use the profiles' calibrated seeds (the CLI takes no seed); --seed %d only seeds the traced run\n", cfg.seed)

	var t tally
	// Without a committed reference for this GOARCH the first run's digest
	// becomes the reference: runs must then at least agree with each other.
	expect := func(r cliRun) checked {
		if !haveRef && r.err == nil {
			ref, haveRef = reportDigest(r.stdout), true
			fmt.Printf("  no reference digest for %s/%s; checking runs against the first\n", w.name, runtime.GOARCH)
		}
		return check(r, ref)
	}
	run := func(cacheDir string) cliRun {
		before, steal := loadavg(), stealSeconds()
		r := runCLI(cfg.bin, cfg.work, w.cliArgs(cfg.workers, cacheDir))
		fmt.Printf("  wall %.3fs cpu %.3fs rss %.1fMiB load %.2f→%.2f steal %.2fs\n",
			r.wall, r.cpu, r.maxRSS, before, loadavg(), stealSeconds()-steal)
		return r
	}

	// Set-up: what the workload needs before its first timed run. For
	// all-warm that is the priming campaign filling a fresh artifact cache
	// (the timed runs read the last one); for the others it is a warm-up
	// campaign, whose lazy one-time costs then stay out of wall_s.
	var setupWalls []float64
	warmDir := ""
	for i := 0; i < setups; i++ {
		dir := cacheDirFor(cfg.work, "setup", i)
		fmt.Printf("  set-up %d:", i+1)
		r := run(dir)
		t.add(expect(r))
		setupWalls = append(setupWalls, r.wall)
		warmDir = dir
		if w.mode != modeWarm {
			os.RemoveAll(dir)
		}
	}

	var walls, cpus, rss []float64
	var cr float64
	hits := 0
	start := time.Now()
	for i := 0; len(walls) < minSamples || time.Since(start).Seconds() < cfg.seconds; i++ {
		dir := warmDir
		if w.mode == modeNetq {
			dir = cacheDirFor(cfg.work, "netq", i) // fresh per run, created by the CLI
		}
		fmt.Printf("  timed %d:", i+1)
		r := run(dir)
		c := expect(r)
		t.add(c)
		if w.mode == modeNetq {
			os.RemoveAll(dir)
		}
		if !c.ok {
			if t.failed >= minSamples {
				break // the program is failing: stop spending the budget
			}
			continue
		}
		walls = append(walls, r.wall)
		cpus = append(cpus, r.cpu)
		rss = append(rss, r.maxRSS)
		if v, ok := thesaurusCR(r.stdout); ok {
			cr = v
		}
		if w.mode == modeWarm {
			hits = hitsOf(r.stderr)
		}
	}
	if len(walls) == 0 {
		return nil, fmt.Errorf("%s: no campaign run succeeded (%d attempted)", w.name, t.attempted)
	}

	wall := median(walls)
	cells := w.cells(hits)
	ms := map[string]metric{
		"wall_s":             {wall, "s"},
		"cpu_s":              {median(cpus), "s"},
		"sim_accesses_per_s": {float64(cells*accesses()) / wall, "accesses/s"},
		"peak_rss_mib":       {median(rss), "MiB"},
		"setup_s":            {median(setupWalls), "s"},
	}
	fmt.Printf("  wall_s median %.4f (max %.4f over n=%d; too few samples for a higher percentile)\n", wall, maxOf(walls), len(walls))
	fmt.Printf("  input size: %d cells × %d accesses\n", cells, accesses())
	fmt.Printf("  failed_frac %d/%d = %.4f fraction\n", t.failed, t.attempted, float64(t.failed)/float64(t.attempted))
	if cr > 0 {
		fmt.Printf("  thesaurus_cr_gmean %.2fx (simulated; the paper reports 2.25x)\n", cr)
	}
	printMetrics(ms)
	return &result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: ms}, nil
}

// thesaurusCR reads the Thesaurus geomean compression ratio from a fig13
// report's "Gmean CR" row, using the header's column position.
func thesaurusCR(report []byte) (float64, bool) {
	lines := strings.Split(string(report), "\n")
	col := -1
	for _, l := range lines {
		if strings.HasPrefix(l, "benchmark ") {
			col = strings.Index(l, "Thesaurus")
		}
		if col >= 0 && strings.HasPrefix(l, "Gmean CR") && len(l) > col {
			f := strings.Fields(l[col:])
			if len(f) == 0 {
				return 0, false
			}
			v, err := strconv.ParseFloat(strings.TrimSuffix(f[0], "x"), 64)
			return v, err == nil
		}
	}
	return 0, false
}
