package runner

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"dlvp/internal/config"
)

const testInstrs = 4_000

func testJob(workload string, instrs uint64) Job {
	return Job{Workload: workload, Config: config.Baseline(), Instrs: instrs}
}

func TestJobKeyCanonical(t *testing.T) {
	a, err := testJob("perlbmk", testInstrs).Key()
	if err != nil {
		t.Fatal(err)
	}
	b, err := testJob("perlbmk", testInstrs).Key()
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("identical jobs hash differently: %s vs %s", a, b)
	}
	if k, _ := testJob("perlbmk", testInstrs+1).Key(); k == a {
		t.Error("instruction budget not part of the content address")
	}
	if k, _ := testJob("mcf", testInstrs).Key(); k == a {
		t.Error("workload not part of the content address")
	}
	dlvp := Job{Workload: "perlbmk", Config: config.DLVP(), Instrs: testInstrs}
	if k, _ := dlvp.Key(); k == a {
		t.Error("configuration not part of the content address")
	}
}

func TestUnknownWorkloadError(t *testing.T) {
	r := New(Options{Workers: 1})
	_, _, err := r.Run(context.Background(), testJob("ghost", testInstrs))
	var uw *UnknownWorkloadError
	if !errors.As(err, &uw) {
		t.Fatalf("err = %v, want UnknownWorkloadError", err)
	}
	if uw.Name != "ghost" {
		t.Errorf("error names %q, want ghost", uw.Name)
	}
}

// TestCacheSingleExecution locks the tentpole property: an identical job
// submitted twice returns byte-identical RunStats with exactly one
// simulation executed.
func TestCacheSingleExecution(t *testing.T) {
	r := New(Options{Workers: 2})
	ctx := context.Background()
	job := testJob("perlbmk", testInstrs)

	first, cached, err := r.Run(ctx, job)
	if err != nil {
		t.Fatal(err)
	}
	if cached {
		t.Error("first run reported as cached")
	}
	second, cached, err := r.Run(ctx, job)
	if err != nil {
		t.Fatal(err)
	}
	if !cached {
		t.Error("second identical run not served from cache")
	}

	fb, _ := json.Marshal(first)
	sb, _ := json.Marshal(second)
	if string(fb) != string(sb) {
		t.Errorf("cached result not byte-identical:\n%s\n%s", fb, sb)
	}

	s := r.Stats()
	if s.SimsExecuted != 1 {
		t.Errorf("SimsExecuted = %d, want 1", s.SimsExecuted)
	}
	if s.CacheHits != 1 {
		t.Errorf("CacheHits = %d, want 1", s.CacheHits)
	}
	if s.CacheMisses != 1 {
		t.Errorf("CacheMisses = %d, want 1", s.CacheMisses)
	}
	if got := s.HitRatio(); got != 0.5 {
		t.Errorf("HitRatio = %v, want 0.5", got)
	}
	if s.InstrsSimulated == 0 || s.SimSeconds <= 0 || s.InstrsPerSec <= 0 {
		t.Errorf("throughput counters not populated: %+v", s)
	}
}

func TestCacheDisabled(t *testing.T) {
	r := New(Options{Workers: 1, CacheEntries: -1})
	ctx := context.Background()
	job := testJob("perlbmk", testInstrs)
	for i := 0; i < 2; i++ {
		if _, cached, err := r.Run(ctx, job); err != nil || cached {
			t.Fatalf("run %d: cached=%v err=%v, want fresh execution", i, cached, err)
		}
	}
	if s := r.Stats(); s.SimsExecuted != 2 || s.CacheCapacity != 0 {
		t.Errorf("stats = %+v, want 2 executions and no cache", s)
	}
}

// TestCoalescing submits the same job concurrently on an idle pool and
// checks only one simulation ran.
func TestCoalescing(t *testing.T) {
	r := New(Options{Workers: runtime.NumCPU()})
	ctx := context.Background()
	job := testJob("mcf", testInstrs)
	const n = 8
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, errs[i] = r.Run(ctx, job)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
	}
	if s := r.Stats(); s.SimsExecuted != 1 {
		t.Errorf("SimsExecuted = %d, want 1 (rest cached or coalesced)", s.SimsExecuted)
	}
}

// TestConcurrentSubmissionsSimulateOnce fires rounds of identical
// submissions, one fresh key per round, so callers race the lead as it
// publishes its result and retires its flight. A caller that misses the
// cache must then find the flight or the result; every key simulates
// exactly once.
func TestConcurrentSubmissionsSimulateOnce(t *testing.T) {
	r := New(Options{Workers: 2})
	ctx := context.Background()
	const rounds, callers = 300, 8
	for i := 0; i < rounds; i++ {
		job := testJob("perlbmk", 200+uint64(i))
		var wg sync.WaitGroup
		for c := 0; c < callers; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, _, err := r.Run(ctx, job); err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
		if got := r.Stats().SimsExecuted; got != int64(i+1) {
			t.Fatalf("round %d: SimsExecuted = %d, want %d (one per key)", i, got, i+1)
		}
	}
}

// matrixJobs builds a small (workload x config) matrix with distinct cache
// keys.
func matrixJobs() []Job {
	var jobs []Job
	for _, w := range []string{"perlbmk", "mcf", "nat"} {
		for _, cfg := range []config.Core{config.Baseline(), config.DLVP()} {
			jobs = append(jobs, Job{Workload: w, Config: cfg, Instrs: testInstrs})
		}
	}
	return jobs
}

// TestRunAllWorkerCountIndependence locks deterministic aggregation: the
// same matrix run on one worker and on NumCPU workers yields identical
// results in identical order.
func TestRunAllWorkerCountIndependence(t *testing.T) {
	ctx := context.Background()
	serial, err := New(Options{Workers: 1}).RunAll(ctx, matrixJobs(), Matrix{})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := New(Options{Workers: runtime.NumCPU()}).RunAll(ctx, matrixJobs(), Matrix{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Error("matrix results depend on worker count")
	}
}

func TestRunAllProgress(t *testing.T) {
	var calls []int
	_, err := New(Options{Workers: 2}).RunAll(context.Background(), matrixJobs(), Matrix{
		Progress: func(done, total int) {
			if total != 6 {
				t.Errorf("total = %d, want 6", total)
			}
			calls = append(calls, done)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(calls) != 6 || calls[len(calls)-1] != 6 {
		t.Errorf("progress calls = %v, want 1..6", calls)
	}
}

// TestRunAllCancelMidMatrix cancels after the first completion and checks
// that queued jobs never start (the pool acquires its slot inside the
// worker, under the caller's context).
func TestRunAllCancelMidMatrix(t *testing.T) {
	r := New(Options{Workers: 1, CacheEntries: -1})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// Plenty of distinct jobs so cancellation lands while most still queue.
	var jobs []Job
	for _, w := range []string{"perlbmk", "mcf", "nat", "gap", "twolf", "soplex"} {
		for _, instrs := range []uint64{testInstrs, testInstrs + 1, testInstrs + 2} {
			jobs = append(jobs, testJob(w, instrs))
		}
	}
	_, err := r.RunAll(ctx, jobs, Matrix{
		Progress: func(done, total int) {
			if done == 1 {
				cancel()
			}
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if s := r.Stats(); s.SimsExecuted >= int64(len(jobs)) {
		t.Errorf("SimsExecuted = %d of %d; cancellation did not stop the matrix", s.SimsExecuted, len(jobs))
	}
}

// TestWaiterCancellationAccounting locks the failure-accounting contract:
// a caller that cancels while coalesced-waiting on another job's flight is
// counted as cancelled, not failed (the underlying simulation is
// unaffected), and when a flight's lead fails every coalesced waiter
// shares the error without multi-counting it.
func TestWaiterCancellationAccounting(t *testing.T) {
	r := New(Options{Workers: 1, CacheEntries: -1})
	bg := context.Background()

	// Occupy the single worker slot so the flight under test stays queued.
	// The budget must keep the worker busy for the whole cancellation
	// sequence below (a few hundred ms of wall clock even on a fast core).
	blockerDone := make(chan struct{})
	go func() {
		defer close(blockerDone)
		if _, _, err := r.Run(bg, testJob("gap", 3_000_000)); err != nil {
			t.Errorf("blocker: %v", err)
		}
	}()
	waitFor(t, func() bool { return r.Stats().JobsRunning == 1 })

	// Lead for a distinct job: creates the flight, then blocks in the
	// queue behind the blocker.
	leadCtx, cancelLead := context.WithCancel(bg)
	defer cancelLead()
	leadErr := make(chan error, 1)
	job := testJob("mcf", testInstrs)
	go func() {
		_, _, err := r.Run(leadCtx, job)
		leadErr <- err
	}()
	waitFor(t, func() bool {
		r.mu.Lock()
		defer r.mu.Unlock()
		return r.flights.Len() == 2 // the blocker's and the lead's
	})

	// Two waiters coalesce onto the lead's flight; cancel the first.
	waiterCtx, cancelWaiter := context.WithCancel(bg)
	waiter1Err := make(chan error, 1)
	go func() {
		_, _, err := r.Run(waiterCtx, job)
		waiter1Err <- err
	}()
	waiter2Err := make(chan error, 1)
	go func() {
		_, _, err := r.Run(bg, job)
		waiter2Err <- err
	}()
	waitFor(t, func() bool { return r.Stats().JobsQueued == 1 })
	// Give both waiters a moment to attach to the flight; whichever path
	// the cancellation lands on (coalesced wait or submission entry), it
	// must count as cancelled, never failed.
	time.Sleep(50 * time.Millisecond)

	cancelWaiter()
	if err := <-waiter1Err; !errors.Is(err, context.Canceled) {
		t.Fatalf("waiter 1 err = %v, want context.Canceled", err)
	}
	if s := r.Stats(); s.JobsCancelled != 1 || s.JobsFailed != 0 {
		t.Errorf("after waiter cancel: cancelled=%d failed=%d, want 1/0", s.JobsCancelled, s.JobsFailed)
	}

	// Now cancel the lead while it is still queued: the lead's error is
	// shared with the remaining waiter but accounted exactly once.
	cancelLead()
	if err := <-leadErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("lead err = %v, want context.Canceled", err)
	}
	if err := <-waiter2Err; !errors.Is(err, context.Canceled) {
		t.Fatalf("waiter 2 err = %v, want the lead's context.Canceled", err)
	}
	<-blockerDone
	s := r.Stats()
	if s.JobsCancelled != 2 {
		t.Errorf("JobsCancelled = %d, want 2 (one waiter + one queued lead)", s.JobsCancelled)
	}
	if s.JobsFailed != 0 {
		t.Errorf("JobsFailed = %d, want 0: cancellations and shared flight errors must not count as failures", s.JobsFailed)
	}
	if s.SimsExecuted != 1 {
		t.Errorf("SimsExecuted = %d, want 1 (the blocker only)", s.SimsExecuted)
	}
}

// waitFor polls cond for up to ~5s.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	for i := 0; i < 5000; i++ {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition never reached")
}

// TestRunCancelledContext checks a pre-cancelled submission never runs.
func TestRunCancelledContext(t *testing.T) {
	r := New(Options{Workers: 1})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := r.Run(ctx, testJob("perlbmk", testInstrs)); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if s := r.Stats(); s.SimsExecuted != 0 {
		t.Errorf("SimsExecuted = %d, want 0", s.SimsExecuted)
	}
}

// A timeline-recording engine attaches the flight-recorder series to its
// results, caches it content-addressed alongside the stats, and exposes
// nothing live once the job is done.
func TestRunResultRecordsTimeline(t *testing.T) {
	r := New(Options{Workers: 2, Timeline: TimelineOptions{Enabled: true, IntervalInstrs: 500}})
	job := Job{Workload: "perlbmk", Config: config.DLVP(), Instrs: testInstrs}
	res, cached, err := r.RunResult(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	if cached {
		t.Error("first run reported cached")
	}
	if res.Timeline == nil {
		t.Fatal("no timeline on a timeline-enabled engine's result")
	}
	if got := res.Timeline.Totals().Instructions; got != res.Stats.Instructions {
		t.Errorf("timeline totals %d != stats %d", got, res.Stats.Instructions)
	}
	if len(res.Timeline.Samples) < 2 {
		t.Errorf("samples = %d, want >= 2 at interval 500", len(res.Timeline.Samples))
	}

	again, cached, err := r.RunResult(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	if !cached {
		t.Error("second identical run not served from cache")
	}
	if again.Timeline == nil || len(again.Timeline.Samples) != len(res.Timeline.Samples) {
		t.Error("cached result lost its timeline")
	}

	key, err := job.Key()
	if err != nil {
		t.Fatal(err)
	}
	if got := r.LiveTimeline(key); got != nil {
		t.Error("LiveTimeline non-nil after completion")
	}
	if got, ok := r.CachedResult(key); !ok || got.Timeline == nil {
		t.Errorf("CachedResult = %v/%v, want timeline-bearing hit", got.Timeline, ok)
	}
}

// A result cached by a non-recording engine must not satisfy the same
// engine once timelines are demanded — it would silently miss the series.
func TestTimelineBypassesTimelineLessCacheEntries(t *testing.T) {
	plain := New(Options{Workers: 1})
	job := testJob("perlbmk", testInstrs)
	if _, _, err := plain.Run(context.Background(), job); err != nil {
		t.Fatal(err)
	}
	// Same cache semantics inside one engine: flip recording on via a new
	// engine sharing nothing — the observable contract is that a
	// timeline-enabled engine never returns a timeline-less result.
	rec := New(Options{Workers: 1, Timeline: TimelineOptions{Enabled: true, IntervalInstrs: 500}})
	res, _, err := rec.RunResult(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	if res.Timeline == nil {
		t.Fatal("timeline-enabled engine returned a timeline-less result")
	}
	if !rec.TimelineEnabled() || plain.TimelineEnabled() {
		t.Error("TimelineEnabled flags wrong")
	}
}
