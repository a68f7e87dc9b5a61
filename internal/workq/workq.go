// Package workq defines the work-queue contract behind the distributed
// campaign coordinator. A queue hands out Tasks — one design × profile
// cell of a campaign matrix each — to any number of workers. The TCP
// protocol in internal/netq is the transport; this package holds the
// task schema, the worker loop, and the completion semantics, and the
// Queue interface lets the loop's tests substitute a scripted fake.
//
// Completion is at-least-once with idempotent effect: a task lost to a
// crashed worker is eventually re-issued (lease expiry or connection
// loss), and a duplicate completion of the same task is harmless because
// the run result is content-addressed — both executions produce the same
// artifact under the same key. The coordinator's final in-process
// campaign pass recomputes anything that never completed, so a queue
// failure can cost redundant work but never correctness.
package workq

import "time"

// Task is one design × profile cell of a campaign matrix, carrying every
// run parameter the worker needs to reproduce the coordinator's exact
// content key (the replay scalars mirror sim.ReplayOptions).
type Task struct {
	ID       int    `json:"id"`
	Profile  string `json:"profile"`
	Design   string `json:"design"`
	Accesses int    `json:"accesses"`

	WarmupFraction float64 `json:"warmup_fraction"`
	SampleEvery    int     `json:"sample_every"`
	Verify         bool    `json:"verify,omitempty"`
}

// Outcome is what a worker reports back for a finished task. Err carries
// the run failure, if any. Key is the RunOutput content address the run
// produced (informational on a shared cache; the lookup handle for a
// streamed artifact). Artifact is the raw encoded artifact bytes, set
// only when the transport asked for streaming (netq without a shared
// cache directory) — the receiver CRC-verifies them before storing.
type Outcome struct {
	Err      error
	Key      string
	Artifact []byte
}

// CacheStats is the slice of a worker's artifact-cache counters the
// coordinator aggregates into one merged summary line (mirrors
// artifact.Stats, which workq cannot import — the dependency runs the
// other way). Fields are cumulative and merge by addition.
type CacheStats struct {
	Hits          uint64 `json:"hits,omitempty"`
	Misses        uint64 `json:"misses,omitempty"`
	Stores        uint64 `json:"stores,omitempty"`
	Corrupt       uint64 `json:"corrupt,omitempty"`
	Evictions     uint64 `json:"evictions,omitempty"`
	TouchFailures uint64 `json:"touch_failures,omitempty"`
	BytesLoaded   uint64 `json:"bytes_loaded,omitempty"`
	BytesStored   uint64 `json:"bytes_stored,omitempty"`
}

// Add merges o into s.
func (s *CacheStats) Add(o CacheStats) {
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.Stores += o.Stores
	s.Corrupt += o.Corrupt
	s.Evictions += o.Evictions
	s.TouchFailures += o.TouchFailures
	s.BytesLoaded += o.BytesLoaded
	s.BytesStored += o.BytesStored
}

// Queue is the worker-side view of a task queue.
type Queue interface {
	// Claim takes the next task; ok is false when the queue is drained
	// (no tasks remain anywhere, not merely none claimable right now —
	// a transport that expects more tasks to reappear blocks or retries
	// internally before answering false).
	Claim() (t Task, ok bool, err error)
	// Heartbeat signals the task is still being worked on, postponing
	// the transport's abandoned-claim recovery (netq: lease extension).
	Heartbeat(t Task) error
	// Finish reports the task's outcome and releases the claim.
	Finish(t Task, out Outcome) error
}

// HeartbeatEvery is the default interval between heartbeats while a task
// runs. It must be comfortably inside the transport's abandonment
// deadline (the netq lease), so a slow-but-alive worker
// is never mistaken for a dead one.
const HeartbeatEvery = 10 * time.Second

// Drain is the shared worker loop: claim a task, run it (heartbeating on
// the side), report the outcome, repeat until the queue is drained. run
// errors are carried in the Outcome — a failed cell is the coordinator's
// recompute problem, not a reason to stop draining — but transport errors
// from the queue itself stop the loop. interval ≤ 0 uses HeartbeatEvery.
func Drain(q Queue, interval time.Duration, run func(Task) Outcome) error {
	if interval <= 0 {
		interval = HeartbeatEvery
	}
	for {
		t, ok, err := q.Claim()
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		out := runWithHeartbeat(q, t, interval, run)
		if err := q.Finish(t, out); err != nil {
			return err
		}
	}
}

// runWithHeartbeat executes run(t) while a side goroutine heartbeats the
// claim every interval. Heartbeat errors are ignored: the transport's
// abandonment recovery re-issues the task in the worst case, and the
// content-addressed result keeps the duplicate harmless.
func runWithHeartbeat(q Queue, t Task, interval time.Duration, run func(Task) Outcome) Outcome {
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-stop:
				return
			case <-ticker.C:
				_ = q.Heartbeat(t)
			}
		}
	}()
	out := run(t)
	close(stop)
	<-done
	return out
}
