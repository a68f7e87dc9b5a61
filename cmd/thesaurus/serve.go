package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/artifact"
	"repro/internal/experiments"
	"repro/internal/harness"
	"repro/internal/netq"
	"repro/internal/workq"
)

// serveCampaign pre-warms the cache over the TCP work queue: it serves
// the campaign's design × profile matrix on addr, waits for workers
// (anywhere on the network; spawn > 0 additionally launches that many
// local worker processes pointed back at us), and returns once every
// task is terminal — or once no worker has been connected for grace, at
// which point it degrades: the in-process campaign that follows
// recomputes whatever the cache is missing, so a transport failure costs
// redundant work, never correctness or report bytes.
//
// An empty addr serves on an ephemeral loopback port for the spawned
// workers alone (-distribute N without -serve). No other worker can
// reach that queue, so once every spawned worker has exited with tasks
// outstanding the coordinator degrades at once instead of waiting out
// grace.
func serveCampaign(addr, addrFile string, lease, grace time.Duration,
	spawn int, wa workerArgs, opt experiments.Options, cache *artifact.Cache) error {
	local := addr == ""
	if local {
		addr = "127.0.0.1:0"
	}
	tasks := campaignTasks(opt)
	srv, err := netq.NewServer(addr, tasks, netq.ServerOptions{
		Lease:         lease,
		CacheDir:      cache.Dir(),
		StoreArtifact: cache.StoreRawRunOutput,
		// Streamed artifacts are stored under the key the coordinator
		// derives from its own task table — the worker-reported key is
		// untrusted input on an unauthenticated listener and is ignored.
		TaskKey: func(t workq.Task) (string, error) {
			return harness.DefaultRunContentKey(t.Profile, t.Design, taskRunOptions(t))
		},
	})
	if err != nil {
		return err
	}
	defer srv.Close()
	fmt.Fprintf(os.Stderr, "serve: %d tasks on %s (lease %s)\n", len(tasks), srv.Addr(), lease)

	if addrFile != "" {
		if err := publishAddr(addrFile, srv.Addr()); err != nil {
			return err
		}
		defer os.Remove(addrFile)
	}

	if spawn > 0 {
		args := append([]string{"-worker", "-connect", srv.Addr()}, wa.flags()...)
		exited, err := spawnWorkers(spawn, args)
		if err != nil {
			return err
		}
		go func() {
			for i := 0; i < spawn; i++ {
				if err := <-exited; err != nil {
					// A dead worker is a warning, not a failure: its leases
					// re-queue for the others, and the in-process campaign
					// recomputes whatever never completed.
					fmt.Fprintf(os.Stderr, "serve: local worker exited with error: %v\n", err)
				}
			}
			if local && !srv.Progress().Terminal() {
				srv.Close()
			}
		}()
	}

	sum := srv.Wait(grace, func(p netq.Progress) {
		fmt.Fprintf(os.Stderr, "serve: %d/%d done, %d leased, %d pending, %d workers\r",
			p.Done, p.Total, p.Leased, p.Pending, p.Workers)
	})
	fmt.Fprintf(os.Stderr, "serve: %d/%d done, %d failed, %d requeued, %d workers over the run\n",
		sum.Done, sum.Total, sum.Failed, sum.Requeues, sum.WorkersEver)
	for _, m := range sum.Failures {
		fmt.Fprintf(os.Stderr, "serve: %s (will recompute in-process)\n", m)
	}
	switch {
	case sum.Degraded && local:
		fmt.Fprintf(os.Stderr,
			"serve: all %d local workers exited with %d tasks outstanding — degrading to in-process recompute\n",
			spawn, sum.Pending+sum.Leased)
	case sum.Degraded:
		fmt.Fprintf(os.Stderr,
			"serve: no workers for %s with %d tasks outstanding — degrading to in-process recompute\n",
			grace, sum.Pending+sum.Leased)
	}
	reportMergedStats(sum.StatsWorkers, sum.Stats)
	return nil
}

// publishAddr writes the bound address for -connect @file workers,
// via temp + rename so a polling worker never reads a torn address.
func publishAddr(path, addr string) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".addr-tmp-*")
	if err != nil {
		return fmt.Errorf("serve: publish address: %w", err)
	}
	name := tmp.Name()
	if _, err := tmp.WriteString(addr); err != nil {
		tmp.Close()
		os.Remove(name)
		return fmt.Errorf("serve: publish address: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(name)
		return fmt.Errorf("serve: publish address: %w", err)
	}
	if err := os.Rename(name, path); err != nil {
		os.Remove(name)
		return fmt.Errorf("serve: publish address: %w", err)
	}
	return nil
}
