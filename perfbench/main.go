// Command perfbench is the repository's campaign benchmark. Run it from
// the repository root through run.sh, which builds cmd/thesaurus and this
// program into .bench_build and keeps every Go and campaign cache inside
// the checkout:
//
//	bash perfbench/run.sh --workload fig13-cold --seed 1 --seconds 18 --trace 0
//
// With --trace 0 it times the real thesaurus binary on the named workload
// (one process at a time) and prints the end-to-end metrics; with
// --trace 1 it drives the same workload in-process, layer by layer, under
// its own span timers and prints the per-layer metrics. Either way the
// last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// README.md in this directory lists every metric and why each workload
// exists.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// metric is one reported value; the JSON shape the result line carries.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// buildDir holds everything run.sh builds and the benchmark writes,
// relative to the repository root the benchmark runs from.
const buildDir = ".bench_build"

// thesaurusBin returns the absolute path of the cmd/thesaurus binary
// run.sh built.
func thesaurusBin() (string, error) {
	bin, err := filepath.Abs(filepath.Join(buildDir, "bin", "thesaurus"))
	if err != nil {
		return "", err
	}
	if _, err := os.Stat(bin); err != nil {
		return "", fmt.Errorf("thesaurus binary: %w (run through perfbench/run.sh)", err)
	}
	return bin, nil
}

// newWorkDir creates a fresh scratch directory under buildDir/runs and
// returns its absolute path.
func newWorkDir(prefix string) (string, error) {
	dir, err := os.MkdirTemp(filepath.Join(buildDir, "runs"), prefix+"-")
	if err != nil {
		return "", err
	}
	return filepath.Abs(dir)
}

// config carries the command line plus the paths run.sh prepared.
type config struct {
	workload *benchWorkload
	seed     uint64
	seconds  float64
	trace    bool
	bin      string // the thesaurus binary
	work     string // per-invocation scratch directory inside the checkout
	workers  int
}

func main() {
	name := flag.String("workload", "", "workload name (see README.md)")
	seed := flag.Uint64("seed", 0, "input seed; the traced run derives each profile's stream seed from it (0 = calibrated seeds)")
	seconds := flag.Float64("seconds", 18, "how long the timed loop measures")
	trace := flag.Int("trace", 0, "0 = timed CLI runs and end-to-end metrics, 1 = traced in-process run and per-layer metrics")
	writeRef := flag.Bool("write-reference", false, "run each workload's campaign once and print reference digests for this GOARCH")
	flag.Parse()

	bin, err := thesaurusBin()
	if err != nil {
		fatal(err)
	}
	if *writeRef {
		if err := writeReference(bin); err != nil {
			fatal(err)
		}
		return
	}
	w, ok := workloadByName(*name)
	if !ok {
		fatal(fmt.Errorf("unknown workload %q (have %s)", *name, strings.Join(workloadNames(), ", ")))
	}
	if *trace != 0 && *trace != 1 {
		fatal(fmt.Errorf("--trace must be 0 or 1, got %d", *trace))
	}
	if *seconds <= 0 {
		fatal(fmt.Errorf("--seconds must be positive"))
	}
	work, err := newWorkDir(w.name)
	if err != nil {
		fatal(err)
	}
	defer os.RemoveAll(work)

	cfg := config{
		workload: w,
		seed:     *seed,
		seconds:  *seconds,
		trace:    *trace == 1,
		bin:      bin,
		work:     work,
		workers:  runtime.NumCPU(),
	}
	var res *result
	if cfg.trace {
		res, err = runTraced(cfg)
	} else {
		res, err = runTimed(cfg)
	}
	if err != nil {
		os.RemoveAll(work)
		fatal(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

// printMetrics writes the human-readable metric lines, sorted by name,
// ahead of the JSON line.
func printMetrics(ms map[string]metric) {
	for _, n := range sortedKeys(ms) {
		fmt.Printf("  %-40s %16.6g %s\n", n, ms[n].Value, ms[n].Unit)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}
