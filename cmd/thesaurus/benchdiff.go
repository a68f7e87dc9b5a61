package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"
)

// benchDiffTolerance is the allowed ns/op growth factor for the gated
// (kernel and hot-path) classes before bench-diff fails. 15% sits above
// normal scheduler noise on an otherwise idle machine but below any real
// regression worth a commit.
const benchDiffTolerance = 1.15

// benchHistoryRecord is one line of results/bench_history.jsonl: a full
// re-measurement tied to the baseline it was compared against, so the
// repository accumulates a machine-readable performance trajectory
// alongside the committed BENCH_hotpath.json snapshot.
type benchHistoryRecord struct {
	When        string       `json:"when"`
	GoVersion   string       `json:"go_version"`
	GOMAXPROCS  int          `json:"gomaxprocs"`
	NumCPU      int          `json:"nproc"`
	Baseline    string       `json:"baseline"`
	Regressions int          `json:"regressions"`
	Note        string       `json:"note,omitempty"`
	Benchmarks  []benchEntry `json:"benchmarks"`
}

// gatedClass reports whether a row's class participates in the
// regression gate. Lifecycle and artifact rows are trajectory-only:
// their numbers legitimately move with allocator state and trace size.
func gatedClass(class string) bool {
	return class == classKernel || class == classHotPath
}

// runBenchDiff re-measures the hot-path benchmark suite and compares it
// against the committed baseline document. Gated rows fail the run when
// ns/op grows beyond benchDiffTolerance or allocs/op grows at all; every
// row is printed with its delta. When historyPath is non-empty the fresh
// measurement is appended there as one JSONL record (note is free-form
// context, e.g. the quick-campaign wall time).
func runBenchDiff(baselinePath, historyPath, note string) error {
	raw, err := os.ReadFile(baselinePath)
	if err != nil {
		return fmt.Errorf("bench-diff: %w", err)
	}
	var base benchDoc
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("bench-diff: parse %s: %w", baselinePath, err)
	}
	if base.Schema != benchSchema {
		return fmt.Errorf("bench-diff: baseline schema %q, tool expects %q — regenerate with -benchjson",
			base.Schema, benchSchema)
	}
	baseline := make(map[string]benchEntry, len(base.Benchmarks))
	for _, e := range base.Benchmarks {
		baseline[e.Name] = e
	}

	entries, err := measureBench()
	if err != nil {
		return err
	}

	var regressions []string
	fmt.Printf("%-30s %-10s %12s %12s %8s %7s\n",
		"benchmark", "class", "base ns/op", "new ns/op", "delta", "allocs")
	for _, e := range entries {
		b, ok := baseline[e.Name]
		if !ok {
			fmt.Printf("%-30s %-10s %12s %12.1f %8s %7d\n",
				e.Name, e.Class, "-", e.NsPerOp, "new", e.AllocsPerOp)
			continue
		}
		delta := 0.0
		if b.NsPerOp > 0 {
			delta = e.NsPerOp/b.NsPerOp - 1
		}
		mark := ""
		if gatedClass(e.Class) {
			if e.NsPerOp > b.NsPerOp*benchDiffTolerance {
				regressions = append(regressions, fmt.Sprintf(
					"%s: %.1f ns/op vs baseline %.1f (%+.1f%%, tolerance %+.0f%%)",
					e.Name, e.NsPerOp, b.NsPerOp, delta*100, (benchDiffTolerance-1)*100))
				mark = "  << REGRESSION"
			}
			if e.AllocsPerOp > b.AllocsPerOp {
				regressions = append(regressions, fmt.Sprintf(
					"%s: %d allocs/op vs baseline %d (any alloc growth fails)",
					e.Name, e.AllocsPerOp, b.AllocsPerOp))
				mark = "  << REGRESSION"
			}
		}
		fmt.Printf("%-30s %-10s %12.1f %12.1f %+7.1f%% %7d%s\n",
			e.Name, e.Class, b.NsPerOp, e.NsPerOp, delta*100, e.AllocsPerOp, mark)
	}
	for _, e := range base.Benchmarks {
		if _, measured := findEntry(entries, e.Name); !measured && gatedClass(e.Class) {
			regressions = append(regressions, fmt.Sprintf("%s: gated baseline row no longer measured", e.Name))
		}
	}

	if historyPath != "" {
		if err := appendBenchHistory(historyPath, benchHistoryRecord{
			When:        time.Now().UTC().Format(time.RFC3339),
			GoVersion:   runtime.Version(),
			GOMAXPROCS:  runtime.GOMAXPROCS(0),
			NumCPU:      runtime.NumCPU(),
			Baseline:    baselinePath,
			Regressions: len(regressions),
			Note:        note,
			Benchmarks:  entries,
		}); err != nil {
			return err
		}
		fmt.Printf("history: appended to %s\n", historyPath)
	}
	if len(regressions) > 0 {
		return fmt.Errorf("bench-diff: %d regression(s) vs %s:\n  %s",
			len(regressions), baselinePath, strings.Join(regressions, "\n  "))
	}
	fmt.Printf("bench-diff: no regressions vs %s (gated classes, %+.0f%% ns/op tolerance)\n",
		baselinePath, (benchDiffTolerance-1)*100)
	return nil
}

// findEntry returns the named row, if measured.
func findEntry(entries []benchEntry, name string) (benchEntry, bool) {
	for _, e := range entries {
		if e.Name == name {
			return e, true
		}
	}
	return benchEntry{}, false
}

// appendBenchHistory appends rec as one line of JSONL.
func appendBenchHistory(path string, rec benchHistoryRecord) error {
	out, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("bench-diff: %w", err)
	}
	if _, err := f.Write(append(out, '\n')); err != nil {
		f.Close()
		return fmt.Errorf("bench-diff: append %s: %w", path, err)
	}
	return f.Close()
}
