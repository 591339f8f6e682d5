package runner

import (
	"context"
	"testing"

	"dlvp/internal/config"
)

// A sites-enabled engine attaches the attribution profile to its results,
// caches it content-addressed alongside the stats, reconciles it exactly
// with the aggregate VP counters, and exposes nothing live once done.
func TestRunResultRecordsSites(t *testing.T) {
	r := New(Options{Workers: 2, Sites: SiteOptions{Enabled: true}})
	job := Job{Workload: "perlbmk", Config: config.DLVP(), Instrs: testInstrs}
	res, cached, err := r.RunResult(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	if cached {
		t.Error("first run reported cached")
	}
	if res.Sites == nil {
		t.Fatal("no site profile on a sites-enabled engine's result")
	}
	tot := res.Sites.Totals()
	if tot.Eligible != res.Stats.VP.Eligible || tot.Predicted != res.Stats.VP.Predicted ||
		tot.Correct != res.Stats.VP.Correct {
		t.Errorf("site totals %d/%d/%d != stats VP %d/%d/%d",
			tot.Eligible, tot.Predicted, tot.Correct,
			res.Stats.VP.Eligible, res.Stats.VP.Predicted, res.Stats.VP.Correct)
	}
	if res.Sites.Instructions != res.Stats.Instructions {
		t.Errorf("profile instructions = %d, stats say %d", res.Sites.Instructions, res.Stats.Instructions)
	}
	if res.Sites.Partial {
		t.Error("finished run's profile still marked partial")
	}

	again, cached, err := r.RunResult(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	if !cached {
		t.Error("second identical run not served from cache")
	}
	if again.Sites == nil || len(again.Sites.Sites) != len(res.Sites.Sites) {
		t.Error("cached result lost its site profile")
	}

	key, err := job.Key()
	if err != nil {
		t.Fatal(err)
	}
	if got := r.LiveSites(key); got != nil {
		t.Error("LiveSites non-nil after completion")
	}
	if !r.SitesEnabled() {
		t.Error("SitesEnabled() = false on a sites-enabled engine")
	}
}

// The cache-bypass regression test: a cached result recorded WITHOUT a
// site profile must not satisfy an engine that is asked to produce one —
// the hit re-runs and backfills the profile.
func TestSitesBypassSiteLessCacheEntries(t *testing.T) {
	r := New(Options{Workers: 1, Sites: SiteOptions{Enabled: true}})
	job := testJob("perlbmk", testInstrs)
	key, err := job.Key()
	if err != nil {
		t.Fatal(err)
	}
	// Seed the cache with a profile-less result, as a pre-siteprof engine
	// (or one running with sites off) would have left behind.
	stale, _, err := New(Options{Workers: 1}).RunResult(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	if stale.Sites != nil {
		t.Fatal("plain engine unexpectedly produced a site profile")
	}
	r.cache.Add(key, stale, 1)

	res, cached, err := r.RunResult(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	if cached {
		t.Error("site-less cache entry served as a hit to a sites-enabled engine")
	}
	if res.Sites == nil {
		t.Fatal("re-run did not backfill the site profile")
	}
	if s := r.Stats(); s.SimsExecuted != 1 {
		t.Errorf("SimsExecuted = %d, want 1 (the bypass re-run)", s.SimsExecuted)
	}
	// The backfilled entry now satisfies the engine.
	if _, cached, _ := r.RunResult(context.Background(), job); !cached {
		t.Error("backfilled entry not served from cache")
	}

	// And the generalized check still covers timelines alongside sites.
	both := New(Options{Workers: 1,
		Timeline: TimelineOptions{Enabled: true, IntervalInstrs: 500},
		Sites:    SiteOptions{Enabled: true}})
	both.cache.Add(key, res, 1) // has sites, lacks a timeline
	bres, cached, err := both.RunResult(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	if cached || bres.Timeline == nil || bres.Sites == nil {
		t.Errorf("timeline-less entry hit = %v (timeline %v, sites %v), want bypass with both artifacts",
			cached, bres.Timeline != nil, bres.Sites != nil)
	}
}

// A sampled run merges per-interval profiles into one that reconciles
// exactly with the summed measured-region counters.
func TestSampledRunMergesSiteProfiles(t *testing.T) {
	r := New(Options{Workers: 2, Sites: SiteOptions{Enabled: true}})
	job := Job{Workload: "perlbmk", Config: config.DLVP(), Instrs: 40_000,
		Sampling: &SamplingSpec{Intervals: 4}}
	res, _, err := r.RunResult(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	if res.Sites == nil {
		t.Fatal("sampled run carries no site profile")
	}
	tot := res.Sites.Totals()
	if tot.Eligible != res.Stats.VP.Eligible || tot.Predicted != res.Stats.VP.Predicted ||
		tot.Correct != res.Stats.VP.Correct {
		t.Errorf("sampled site totals %d/%d/%d != measured VP %d/%d/%d",
			tot.Eligible, tot.Predicted, tot.Correct,
			res.Stats.VP.Eligible, res.Stats.VP.Predicted, res.Stats.VP.Correct)
	}
	if res.Sites.Instructions != res.Sampled.MeasuredTotal {
		t.Errorf("profile spans %d instrs, want the measured total %d",
			res.Sites.Instructions, res.Sampled.MeasuredTotal)
	}
	if res.Sites.Workload != job.Workload || res.Sites.Scheme == "" {
		t.Errorf("merged profile labels = %q/%q", res.Sites.Workload, res.Sites.Scheme)
	}
}
