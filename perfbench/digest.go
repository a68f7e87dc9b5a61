package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"runtime"
)

// reference.json maps GOARCH → workload → the sha256 of the workload's
// normalized report. Reports are deterministic, but other architectures
// may fuse multiply-adds, so each GOARCH carries its own digests.
//
//go:embed reference.json
var referenceJSON []byte

func references() (map[string]map[string]string, error) {
	var refs map[string]map[string]string
	if err := json.Unmarshal(referenceJSON, &refs); err != nil {
		return nil, fmt.Errorf("reference.json: %w", err)
	}
	return refs, nil
}

func referenceDigest(workload string) (string, bool) {
	refs, err := references()
	if err != nil {
		return "", false
	}
	d, ok := refs[runtime.GOARCH][workload]
	return d, ok
}

// Wall-clock lines the CLI prints on stdout: the per-experiment
// "[fig13 completed in 4.2s]" footer and the multi-experiment
// "Campaign timing" block (a blank line, the heading, its rule, one row
// per experiment and a total row).
var (
	completedLine = regexp.MustCompile(`(?m)^\[[^\]]* completed in [^\]]*\]\n`)
	timingBlock   = regexp.MustCompile(`(?m)^\n?Campaign timing \(.*\)\n=+\n(?:\S+ +[0-9.]+s\n)*`)
)

// normalizeReport strips the wall-clock lines, so the digest covers
// exactly the deterministic report bytes (and survives the footer moving
// to stderr).
func normalizeReport(stdout []byte) []byte {
	out := completedLine.ReplaceAll(stdout, nil)
	return timingBlock.ReplaceAll(out, nil)
}

func reportDigest(stdout []byte) string {
	sum := sha256.Sum256(normalizeReport(stdout))
	return hex.EncodeToString(sum[:])
}

// writeReference runs every workload's campaign once (warm workloads are
// primed first) and prints reference.json content for this GOARCH merged
// into the committed one. Regenerate it only for an intended report
// change, and say why in CHANGES.md.
func writeReference(bin string) error {
	refs, err := references()
	if err != nil {
		return err
	}
	work, err := newWorkDir("reference")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)
	workers := runtime.NumCPU()
	mine := map[string]string{}
	for _, w := range workloads {
		dir := cacheDirFor(work, w.name, 0)
		r := runCLI(bin, work, w.cliArgs(workers, dir))
		if w.mode == modeWarm && r.err == nil {
			r = runCLI(bin, work, w.cliArgs(workers, dir))
		}
		if r.err != nil {
			return fmt.Errorf("%s: %v: %s", w.name, r.err, lastLine(r.stderr))
		}
		mine[w.name] = reportDigest(r.stdout)
		fmt.Fprintf(os.Stderr, "%s %s\n", w.name, mine[w.name])
	}
	if refs == nil {
		refs = map[string]map[string]string{}
	}
	refs[runtime.GOARCH] = mine
	b, err := json.MarshalIndent(refs, "", "  ") // map keys come out sorted
	if err != nil {
		return err
	}
	_, err = os.Stdout.Write(append(b, '\n'))
	return err
}
