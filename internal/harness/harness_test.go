package harness

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/llc"
	"repro/internal/thesaurus"
)

func quickOpt() RunOptions {
	opt := DefaultRunOptions()
	opt.Accesses = 60_000
	return opt
}

func TestBuildAllDesigns(t *testing.T) {
	for _, d := range Designs {
		c, mem, err := BuildLLC(d)
		if err != nil || c == nil || mem == nil {
			t.Fatalf("BuildLLC(%s): %v", d, err)
		}
	}
	if _, _, err := BuildLLC("nonsense"); err == nil {
		t.Fatal("unknown design built")
	}
}

func TestRecordProfileMemoized(t *testing.T) {
	a, err := RecordProfile("exchange2", 30_000)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RecordProfile("exchange2", 30_000)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("recording not memoized")
	}
	if _, err := RecordProfile("nosuch", 1000); err == nil {
		t.Fatal("unknown profile recorded")
	}
}

func TestRunMemoizedAndConsistent(t *testing.T) {
	opt := quickOpt()
	o1, err := Run("exchange2", "Thesaurus", opt)
	if err != nil {
		t.Fatal(err)
	}
	before := replays.Load()
	o2, err := Run("exchange2", "Thesaurus", opt)
	if err != nil {
		t.Fatal(err)
	}
	if delta := replays.Load() - before; delta != 0 {
		t.Fatalf("memoized re-run replayed %d times", delta)
	}
	// Each caller gets an isolated deep copy of the memoized master, equal
	// in content but sharing no mutable state.
	if o1 == o2 {
		t.Fatal("memoized runs share one mutable output")
	}
	if o1.Snap.Extra == o2.Snap.Extra {
		t.Fatal("memoized runs share one extra snapshot")
	}
	if !reflect.DeepEqual(o1, o2) {
		t.Fatal("memoized run copies diverge")
	}
	if o1.Res.Design != "Thesaurus" || o1.Snap.Design != "Thesaurus" {
		t.Fatalf("design %q/%q", o1.Res.Design, o1.Snap.Design)
	}
	if _, ok := o1.Snap.Extra.(*thesaurus.Snapshot); !ok {
		t.Fatalf("snapshot extra type %T", o1.Snap.Extra)
	}
}

func TestRunCustomThesaurusConfigNotShared(t *testing.T) {
	opt := quickOpt()
	base, err := Run("exchange2", "Thesaurus", opt)
	if err != nil {
		t.Fatal(err)
	}
	cfg := thesaurus.DefaultConfig()
	cfg.LSH.Bits = 8
	opt2 := opt
	opt2.Thesaurus = &cfg
	before := replays.Load()
	custom, err := Run("exchange2", "Thesaurus", opt2)
	if err != nil {
		t.Fatal(err)
	}
	custom2, err := Run("exchange2", "Thesaurus", opt2)
	if err != nil {
		t.Fatal(err)
	}
	// Custom-configuration runs are never memoized: each call replays.
	if delta := replays.Load() - before; delta != 2 {
		t.Fatalf("custom-config runs replayed %d times, want 2", delta)
	}
	ts := custom.Snap.Extra.(*thesaurus.Snapshot)
	if ts.Cfg.LSH.Bits != 8 {
		t.Fatalf("custom config not applied: %d bits", ts.Cfg.LSH.Bits)
	}
	if bts := base.Snap.Extra.(*thesaurus.Snapshot); bts.Cfg.LSH.Bits == 8 {
		t.Fatal("custom config leaked into the default memo entry")
	}
	if !reflect.DeepEqual(custom.Res, custom2.Res) {
		t.Fatal("custom-config runs are not deterministic")
	}
}

func TestRunMatrix(t *testing.T) {
	keys := []RunKey{
		{Profile: "exchange2", Design: "Baseline"},
		{Profile: "exchange2", Design: "Thesaurus"},
		{Profile: "leela", Design: "Baseline"},
	}
	got, err := RunMatrix(keys, quickOpt())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("%d results", len(got))
	}
	for _, k := range keys {
		out := got[k]
		if out == nil || out.Res.Design != k.Design {
			t.Fatalf("missing or mislabelled result for %+v", k)
		}
	}
	// Matrix results agree with direct runs (memoization shares them).
	direct, err := Run("exchange2", "Baseline", quickOpt())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got[keys[0]], direct) {
		t.Fatal("matrix and direct runs diverge")
	}
	if _, err := RunMatrix([]RunKey{{Profile: "nope", Design: "Baseline"}}, quickOpt()); err == nil {
		t.Fatal("bad profile accepted")
	}
}

func TestRunDefaultEqualConfigSharesMemo(t *testing.T) {
	// A sweep point configured identically to the paper default must hit
	// the default design's memo entry instead of re-running.
	opt := quickOpt()
	base, err := Run("exchange2", "Thesaurus", opt)
	if err != nil {
		t.Fatal(err)
	}
	cfg := thesaurus.DefaultConfig()
	opt2 := opt
	opt2.Thesaurus = &cfg
	before := replays.Load()
	shared, err := Run("exchange2", "Thesaurus", opt2)
	if err != nil {
		t.Fatal(err)
	}
	if delta := replays.Load() - before; delta != 0 {
		t.Fatalf("default-equal sweep config replayed %d times instead of sharing the memo", delta)
	}
	if !reflect.DeepEqual(base, shared) {
		t.Fatal("default-equal sweep config diverges from the memoized run")
	}
}

func TestRunMemoKeyCoversReplayOptions(t *testing.T) {
	// Regression: the memo key once encoded only (profile, design,
	// accesses), so two Runs differing in ReplayOptions shared one entry
	// and the second caller silently got the first caller's statistics.
	opt := quickOpt()
	opt.Accesses = 61_000
	o1, err := Run("exchange2", "Baseline", opt)
	if err != nil {
		t.Fatal(err)
	}

	opt2 := opt
	opt2.Replay.SampleEvery = opt.Replay.SampleEvery * 4
	before := replays.Load()
	o2, err := Run("exchange2", "Baseline", opt2)
	if err != nil {
		t.Fatal(err)
	}
	if delta := replays.Load() - before; delta != 1 {
		t.Fatalf("changed SampleEvery replayed %d times, want its own entry (1)", delta)
	}
	if o1.Res.Samples == o2.Res.Samples {
		t.Fatalf("coarser sampling took the same %d samples — shared memo entry?", o2.Res.Samples)
	}

	opt3 := opt
	opt3.Replay.WarmupFraction = 0.5
	before = replays.Load()
	if _, err := Run("exchange2", "Baseline", opt3); err != nil {
		t.Fatal(err)
	}
	if delta := replays.Load() - before; delta != 1 {
		t.Fatalf("changed WarmupFraction replayed %d times, want its own entry (1)", delta)
	}

	// Each variant memoizes under its own key: repeating one is free.
	before = replays.Load()
	if _, err := Run("exchange2", "Baseline", opt2); err != nil {
		t.Fatal(err)
	}
	if delta := replays.Load() - before; delta != 0 {
		t.Fatalf("repeated variant replayed %d times, want memo hit", delta)
	}
}

func TestRunOnSampleDisablesMemo(t *testing.T) {
	// A caller-provided OnSample hook must observe its own replay, so such
	// runs bypass the memo entirely.
	opt := quickOpt()
	opt.Accesses = 61_000 // key collides with the replay-options test on purpose
	calls := 0
	opt.Replay.OnSample = func(llc.Cache) { calls++ }
	before := replays.Load()
	if _, err := Run("exchange2", "Baseline", opt); err != nil {
		t.Fatal(err)
	}
	if delta := replays.Load() - before; delta != 1 {
		t.Fatalf("OnSample run replayed %d times, want 1 (no memo)", delta)
	}
	if calls == 0 {
		t.Fatal("OnSample hook never fired")
	}
}

func TestRunOutputIsolation(t *testing.T) {
	// Regression: Run once handed every caller the same live *RunOutput,
	// so one caller's mutation corrupted everyone else's view. Mutate one
	// copy through every layer and check a fresh Run is byte-identical.
	opt := quickOpt()
	opt.Accesses = 62_000
	o1, err := Run("exchange2", "Thesaurus", opt)
	if err != nil {
		t.Fatal(err)
	}
	pristine, err := json.Marshal(o1)
	if err != nil {
		t.Fatal(err)
	}

	o1.Res.MPKI = -1
	o1.Res.LLCStats = llc.Stats{}
	o1.Snap.Design = "corrupted"
	o1.Snap.Stats = llc.Stats{}
	o1.ClusterFracs = [4]float64{9, 9, 9, 9}
	ts := o1.Snap.Extra.(*thesaurus.Snapshot)
	ts.Extra = thesaurus.ExtraStats{}
	ts.LiveClusters = -1
	ts.BaseCache = thesaurus.BaseCacheSnapshot{}
	for i := range ts.DiffSeries {
		ts.DiffSeries[i] = -42
	}

	o2, err := Run("exchange2", "Thesaurus", opt)
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(o2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pristine, got) {
		t.Fatal("mutating one caller's output corrupted the memoized master")
	}
}

func TestRunConcurrentSingleflight(t *testing.T) {
	// K concurrent Runs of one cold key must coalesce into exactly one
	// replay, and every caller must still get an isolated copy.
	opt := quickOpt()
	opt.Accesses = 63_000
	if _, err := RecordProfile("exchange2", opt.Accesses); err != nil {
		t.Fatal(err)
	}
	const k = 8
	outs := make([]*RunOutput, k)
	errs := make([]error, k)
	before := replays.Load()
	var wg sync.WaitGroup
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			outs[i], errs[i] = Run("exchange2", "Baseline", opt)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", i, err)
		}
	}
	if delta := replays.Load() - before; delta != 1 {
		t.Fatalf("%d concurrent runs executed %d replays, want exactly 1", k, delta)
	}
	for i := 1; i < k; i++ {
		if outs[i] == outs[0] {
			t.Fatalf("goroutines 0 and %d share one output", i)
		}
		if !reflect.DeepEqual(outs[i], outs[0]) {
			t.Fatalf("goroutine %d diverges from goroutine 0", i)
		}
	}
}

func TestParMap(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 64} {
		got, err := ParMap(10, workers, func(i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
	// n = 0 is a no-op.
	if out, err := ParMap(0, 4, func(int) (int, error) { return 0, nil }); err != nil || len(out) != 0 {
		t.Fatalf("empty ParMap: %v, %v", out, err)
	}
	// Errors propagate and abort.
	wantErr := fmt.Errorf("boom")
	if _, err := ParMap(100, 4, func(i int) (int, error) {
		if i == 7 {
			return 0, wantErr
		}
		return i, nil
	}); err == nil {
		t.Fatal("ParMap swallowed the error")
	}
}

func TestRunAll(t *testing.T) {
	res, err := RunAll("exchange2", []string{"Baseline", "Thesaurus"}, quickOpt())
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 || res["Baseline"].Design != "Baseline" {
		t.Fatalf("results %+v", res)
	}
}
