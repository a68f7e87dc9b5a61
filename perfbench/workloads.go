package main

import (
	"fmt"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/experiments"
	"repro/internal/scheme"
)

// mode is the cache state a workload's campaign runs against.
type mode int

const (
	modeCold mode = iota // -no-cache: every cell replays, no artifact I/O
	modeWarm             // an artifact cache primed in set-up: cells are decoded
	modeNetq             // loopback TCP work queue, fresh cache dir per run
)

// benchWorkload is one named campaign the benchmark times. All workloads run
// at the same trace length (accesses); they differ in campaign and cache
// state.
type benchWorkload struct {
	name       string
	why        string
	experiment string // CLI experiment argument
	mode       mode
}

// setups is how many times a timed run repeats its workload's set-up;
// setup_s is their median.
const setups = 2

// benchProfiles are the two cache-sensitive profiles every workload runs
// over: two, so ablate's per-profile pool keeps both workers of a 2-core
// host busy. mcf also feeds Fig. 2, which the all campaign computes
// whatever the profile set.
var benchProfiles = []string{"mcf", "xz"}

var workloads = []*benchWorkload{
	{
		name:       "fig13-cold",
		why:        "every registered design replays with no artifact cache: Ideal replay dominates, then the other designs and recording",
		experiment: "fig13",
		mode:       modeCold,
	},
	{
		name:       "ablate-cold",
		why:        "19 unmemoized Thesaurus configs per profile: the Thesaurus install path and LSH dominate, Ideal does no work",
		experiment: "ablate",
		mode:       modeCold,
	},
	{
		name:       "all-warm",
		why:        "whole campaign against a cache primed in set-up: artifact decode, DBSCAN and Ideal snapshots remain, nothing replays",
		experiment: "all",
		mode:       modeWarm,
	},
	{
		name:       "fig13-netq",
		why:        "fig13 over the loopback netq work queue: leases, artifacts stored by workers, linger and warm report assembly",
		experiment: "fig13",
		mode:       modeNetq,
	},
}

func workloadByName(name string) (*benchWorkload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

// accesses is the per-profile trace length of every workload: half the
// CLI's -quick preset, so one campaign takes about a second on a 2-core
// host and a run repeats it often enough for a steady median.
func accesses() int { return experiments.Quick().Accesses / 2 }

// cliArgs returns the thesaurus command line for one campaign run.
// cacheDir is the run's artifact cache (ignored by cold workloads, which
// pass -no-cache so no run can touch a default user cache).
func (w *benchWorkload) cliArgs(workers int, cacheDir string) []string {
	profiles := strings.Join(benchProfiles, ",")
	n := strconv.Itoa(accesses())
	switch w.mode {
	case modeWarm:
		return []string{"-n", n, "-cache-dir", cacheDir, "-workers", strconv.Itoa(workers),
			"-profiles", profiles, w.experiment}
	case modeNetq:
		return []string{"-serve", "127.0.0.1:0", "-distribute", strconv.Itoa(workers), "-workers", "1",
			"-cache-dir", cacheDir, "-n", n, "-profiles", profiles, w.experiment}
	default:
		return []string{"-n", n, "-no-cache", "-workers", strconv.Itoa(workers),
			"-profiles", profiles, w.experiment}
	}
}

// ablationConfigs is the number of Thesaurus configurations the CLI's
// ablate experiment sweeps per profile (see thesaurusConfigs).
var ablationConfigs = len(thesaurusConfigs())

// cells is the number of (profile, design or configuration) runs the
// campaign's report is built from; sim_accesses_per_s is cells × trace
// length over wall time. all-warm counts the run-level artifact hits its
// warm campaign reads instead (hits is parsed from its stderr summary).
func (w *benchWorkload) cells(hits int) int {
	switch {
	case w.mode == modeWarm:
		return hits
	case w.experiment == "ablate":
		return len(benchProfiles) * (1 + ablationConfigs) // Baseline + each config
	default:
		return len(benchProfiles) * len(scheme.Names())
	}
}

// cacheDirFor names a fresh artifact cache directory for run i.
func cacheDirFor(work, tag string, i int) string {
	return filepath.Join(work, fmt.Sprintf("cache-%s-%d", tag, i))
}
