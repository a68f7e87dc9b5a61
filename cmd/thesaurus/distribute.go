package main

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"time"

	"repro/internal/artifact"
	"repro/internal/experiments"
	"repro/internal/harness"
	"repro/internal/netq"
	"repro/internal/workload"
	"repro/internal/workq"
)

// campaignTasks enumerates the design × profile matrix of the coming
// campaign as the queue tasks the netq coordinator publishes.
func campaignTasks(opt experiments.Options) []workq.Task {
	profiles := opt.Profiles
	if len(profiles) == 0 {
		profiles = workload.Names()
	}
	ro := harness.DefaultRunOptions()
	var tasks []workq.Task
	for _, p := range profiles {
		for _, d := range harness.Designs {
			tasks = append(tasks, workq.Task{
				ID:             len(tasks),
				Profile:        p,
				Design:         d,
				Accesses:       opt.Accesses,
				WarmupFraction: ro.Replay.WarmupFraction,
				SampleEvery:    ro.Replay.SampleEvery,
				Verify:         ro.Replay.Verify,
			})
		}
	}
	return tasks
}

// taskRunOptions reconstructs the harness options a task's cell runs
// under. Workers stay serial per task (Workers=1): parallelism comes
// from draining many tasks at once, across worker processes.
func taskRunOptions(t workq.Task) harness.RunOptions {
	opt := harness.RunOptions{
		Accesses: t.Accesses,
		Replay:   harness.DefaultRunOptions().Replay,
		Workers:  1,
	}
	opt.Replay.WarmupFraction = t.WarmupFraction
	opt.Replay.SampleEvery = t.SampleEvery
	opt.Replay.Verify = t.Verify
	return opt
}

// runCell executes one task's design × profile cell via the normal
// harness path, which persists the RunOutput artifact into the cache
// under the cross-process singleflight. Run failures ride the outcome
// (the task is marked failed, the coordinator recomputes in-process);
// they never stop the worker's drain loop.
func runCell(t workq.Task) workq.Outcome {
	_, err := harness.Run(t.Profile, t.Design, taskRunOptions(t))
	if err != nil {
		fmt.Fprintf(os.Stderr, "thesaurus worker: task %d (%s/%s): %v\n",
			t.ID, t.Profile, t.Design, err)
	}
	return workq.Outcome{Err: err}
}

// workerCacheStats snapshots the installed cache's counters in the
// transport schema workers report back to the coordinator.
func workerCacheStats() workq.CacheStats {
	st, ok := harness.ArtifactStats()
	if !ok {
		return workq.CacheStats{}
	}
	return workq.CacheStats{
		Hits:          st.Hits,
		Misses:        st.Misses,
		Stores:        st.Stores,
		Corrupt:       st.Corrupt,
		Evictions:     st.Evictions,
		TouchFailures: st.TouchFailures,
		BytesLoaded:   st.BytesLoaded,
		BytesStored:   st.BytesStored,
	}
}

// reportMergedStats prints one coordinator-side summary of every
// reporting worker's cache counters — the replacement for N workers
// interleaving their own stats lines on a shared stderr.
func reportMergedStats(workers int, s workq.CacheStats) {
	if workers == 0 {
		return
	}
	fmt.Fprintf(os.Stderr,
		"artifact cache (%d workers): %d hits, %d misses, %d stores, %d corrupt, %d evicted, %.1f MiB loaded, %.1f MiB stored\n",
		workers, s.Hits, s.Misses, s.Stores, s.Corrupt, s.Evictions,
		float64(s.BytesLoaded)/(1<<20), float64(s.BytesStored)/(1<<20))
	if s.TouchFailures > 0 {
		fmt.Fprintf(os.Stderr,
			"artifact cache (workers): %d LRU touch failure(s) — entries age as if idle; check cache-dir permissions\n",
			s.TouchFailures)
	}
}

// runWorkerNet connects to a netq coordinator and drains its queue.
// connect is host:port, or @file naming a file that will hold the
// address (the coordinator's -addr-file; polled briefly so workers can
// start before the coordinator binds its port). On this transport
// completed tasks report their RunOutput content key, plus the raw
// artifact bytes when the handshake proved the coordinator's cache
// directory is not ours.
func runWorkerNet(connect string, cache *artifact.Cache) error {
	addr, err := resolveConnectAddr(connect)
	if err != nil {
		return err
	}
	copt := netq.ClientOptions{FinalStats: workerCacheStats}
	if cache != nil {
		copt.CacheDir = cache.Dir()
	}
	cli, err := netq.Dial(addr, copt)
	if err != nil {
		return err
	}
	defer cli.Close()
	stream := cli.StreamArtifacts()
	return workq.Drain(cli, workq.HeartbeatEvery, func(t workq.Task) workq.Outcome {
		out := runCell(t)
		if out.Err != nil {
			return out
		}
		key, err := harness.DefaultRunContentKey(t.Profile, t.Design, taskRunOptions(t))
		if err != nil {
			// The cell ran; only the key derivation failed. Report success
			// without a key — the coordinator recomputes from its cache.
			fmt.Fprintf(os.Stderr, "thesaurus worker: task %d content key: %v\n", t.ID, err)
			return out
		}
		out.Key = key
		if stream && cache != nil {
			if raw, ok := cache.RawRunOutput(key); ok {
				out.Artifact = raw
			} else {
				// Nothing persisted to stream (run cache disabled or
				// evicted already): the completion still counts, the
				// coordinator just recomputes this cell in-process.
				fmt.Fprintf(os.Stderr, "thesaurus worker: task %d: no artifact to stream (run cache off?)\n", t.ID)
			}
		}
		return out
	})
}

// resolveConnectAddr turns a -connect value into a dialable address,
// polling an @file until the coordinator publishes into it.
func resolveConnectAddr(connect string) (string, error) {
	if len(connect) == 0 {
		return "", errors.New("-connect requires an address")
	}
	if connect[0] != '@' {
		return connect, nil
	}
	path := connect[1:]
	deadline := time.Now().Add(30 * time.Second)
	for {
		data, err := os.ReadFile(path)
		if err == nil && len(data) > 0 {
			return string(data), nil
		}
		if time.Now().After(deadline) {
			if err == nil {
				err = errors.New("file is empty")
			}
			return "", fmt.Errorf("-connect %s: %w", connect, err)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// spawnWorkers launches n copies of our own binary with args, returning
// a channel that receives each worker's exit status.
func spawnWorkers(n int, args []string) (<-chan error, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("distribute: resolve executable: %w", err)
	}
	exited := make(chan error, n)
	for i := 0; i < n; i++ {
		cmd := exec.Command(exe, args...)
		// Workers write nothing the report needs: stdout would only ever
		// carry accidental prints, so both streams go to our stderr.
		cmd.Stdout = os.Stderr
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			return nil, fmt.Errorf("distribute: start worker: %w", err)
		}
		go func() { exited <- cmd.Wait() }()
	}
	return exited, nil
}

// workerArgs is the slice of our own flag state a spawned worker must
// inherit to address the same cache with the same semantics.
type workerArgs struct {
	cacheDir   string
	cacheMax   int64
	noRunCache bool
	verify     bool
}

// flags renders the inherited state as command-line arguments.
func (a workerArgs) flags() []string {
	args := []string{"-cache-dir", a.cacheDir}
	if a.cacheMax > 0 {
		args = append(args, "-cache-max-bytes", strconv.FormatInt(a.cacheMax, 10))
	}
	if a.noRunCache {
		args = append(args, "-no-run-cache")
	}
	if a.verify {
		args = append(args, "-cache-verify")
	}
	return args
}
