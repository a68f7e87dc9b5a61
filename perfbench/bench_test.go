package main

import (
	"errors"
	"regexp"
	"strings"
	"testing"

	"repro/internal/scheme"
)

const sampleReport = `Figure 13a: average cache occupancy (compressed size, 100% = no savings)
benchmark  Baseline  Dedup  Thesaurus
mcf        100%      77%    30%
Gmean CR   1.00x     1.40x  3.78x
[fig13 completed in 4.2s]

Fig 20 …
[fig20 completed in 0.7s]

Campaign timing (workers=2, GOMAXPROCS=2)
==========================================
table1          0.0s
fig13           1.9s
total           7.2s
`

func TestNormalizeDropsOnlyWallClockLines(t *testing.T) {
	got := string(normalizeReport([]byte(sampleReport)))
	for _, gone := range []string{"completed in", "Campaign timing", "=====", "total", "table1 "} {
		if strings.Contains(got, gone) {
			t.Errorf("normalized report still contains %q:\n%s", gone, got)
		}
	}
	for _, kept := range []string{"Figure 13a", "Gmean CR   1.00x     1.40x  3.78x", "Fig 20 …"} {
		if !strings.Contains(got, kept) {
			t.Errorf("normalized report lost %q:\n%s", kept, got)
		}
	}
	// A different wall clock, or the footer moved to stderr, must not
	// change the digest.
	other := strings.ReplaceAll(sampleReport, "4.2s", "9.9s")
	other = strings.ReplaceAll(other, "1.9s", "3.1s")
	if reportDigest([]byte(other)) != reportDigest([]byte(sampleReport)) {
		t.Error("digest depends on timing lines")
	}
	moved := completedLine.ReplaceAllString(sampleReport, "")
	moved = moved[:strings.Index(moved, "\nCampaign timing")]
	if reportDigest([]byte(moved)) != reportDigest([]byte(sampleReport)) {
		t.Error("digest changes when the timing footer leaves stdout")
	}
}

// A run whose report differs from the reference and a run that exits
// non-zero both count as failed; a matching run does not.
func TestFailuresAreCounted(t *testing.T) {
	want := reportDigest([]byte(sampleReport))
	altered := strings.Replace(sampleReport, "3.78x", "3.79x", 1)
	runs := []cliRun{
		{stdout: []byte(sampleReport)},
		{stdout: []byte(altered)},
		{stdout: []byte(sampleReport), err: errors.New("exit status 1"), exitCode: 1},
	}
	var tl tally
	for _, r := range runs {
		tl.add(check(r, want))
	}
	if tl.attempted != 3 || tl.failed != 2 {
		t.Fatalf("attempted %d failed %d, want 3 and 2", tl.attempted, tl.failed)
	}
}

func TestThesaurusCR(t *testing.T) {
	v, ok := thesaurusCR([]byte(sampleReport))
	if !ok || v != 3.78 {
		t.Fatalf("thesaurusCR = %v, %v; want 3.78", v, ok)
	}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// Every registered design gets its replay rows, under a slug that is
// metric-safe and distinct from every other design's.
func TestEveryDesignHasReplayRows(t *testing.T) {
	seen := map[string]string{}
	for _, d := range scheme.Names() {
		s := slug(d)
		if prev, ok := seen[s]; ok {
			t.Errorf("designs %q and %q share slug %q", prev, d, s)
		}
		seen[s] = d
		for _, m := range []string{"ns_per_event", "release_ms", "llc_hit_rate"} {
			if name := "replay." + s + "." + m; !metricName.MatchString(name) {
				t.Errorf("design %q: metric name %q is not metric-safe", d, name)
			}
		}
	}
	if slug("2x Baseline") != "2x_Baseline" {
		t.Errorf("slug(2x Baseline) = %q", slug("2x Baseline"))
	}

	ms := map[string]metric{}
	newProfilePass().put(func(name string, v float64, unit string) { ms[name] = metric{v, unit} })
	for _, d := range scheme.Names() {
		for _, m := range []string{"ns_per_event", "release_ms", "llc_hit_rate"} {
			if _, ok := ms["replay."+slug(d)+"."+m]; !ok {
				t.Errorf("registered design %q has no replay.%s.%s row", d, slug(d), m)
			}
		}
	}
}

func TestSeedZeroKeepsCalibratedSeeds(t *testing.T) {
	p0, err := seededProfile("mcf", 0)
	if err != nil {
		t.Fatal(err)
	}
	p1, _ := seededProfile("mcf", 1)
	p2, _ := seededProfile("mcf", 2)
	again, _ := seededProfile("mcf", 1)
	if p1.Seed == p0.Seed || p1.Seed == p2.Seed || again.Seed != p1.Seed {
		t.Fatalf("seeds: 0→%d 1→%d 2→%d 1 again→%d", p0.Seed, p1.Seed, p2.Seed, again.Seed)
	}
	if fresh, _ := seededProfile("mcf", 0); fresh.Seed != p0.Seed {
		t.Fatal("deriving a seed edited the registered profile")
	}
}

func TestAblationConfigsMatchTheCLI(t *testing.T) {
	if ablationConfigs != 19 {
		t.Fatalf("%d ablation configs, the CLI's ablate sweeps 19", ablationConfigs)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if m := median(xs); m != 2.5 {
		t.Errorf("median = %v", m)
	}
	if p := percentile(xs, 1); p != 4 {
		t.Errorf("p100 = %v", p)
	}
	if p := percentile(nil, 0.5); p != 0 {
		t.Errorf("empty = %v", p)
	}
}
