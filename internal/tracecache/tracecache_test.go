package tracecache

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dlvp/internal/trace"
)

// synthSource is a deterministic record stream: every reader constructed
// from the same (seed, n) produces the same n records. It counts reader
// constructions so tests can assert single-flight behaviour.
//
// When gate is set, the first reader constructed blocks before its first
// record until gate is closed, holding its capture in flight; with
// panicAt > 0 that reader then panics after panicAt records. Later readers
// stream normally.
type synthSource struct {
	seed    uint64
	n       uint64
	gate    chan struct{}
	panicAt uint64
	built   atomic.Int64
}

func (s *synthSource) reader() trace.Reader {
	r := &synthReader{seed: s.seed, n: s.n}
	if s.built.Add(1) == 1 {
		r.gate, r.panicAt = s.gate, s.panicAt
	}
	return r
}

func (s *synthSource) expected() []trace.Rec {
	return trace.Collect(&synthReader{seed: s.seed, n: s.n}, 0)
}

type synthReader struct {
	seed, i, n uint64
	gate       chan struct{}
	panicAt    uint64
}

func (r *synthReader) Next(rec *trace.Rec) bool {
	if r.gate != nil {
		<-r.gate
		r.gate = nil
	}
	if r.panicAt > 0 && r.i == r.panicAt {
		panic("synthetic emulator fault")
	}
	if r.i >= r.n {
		return false
	}
	*rec = trace.Rec{
		Seq:  r.i,
		PC:   0x1000 + 4*r.i,
		Addr: r.seed ^ (r.i * 8),
	}
	rec.Vals[0] = r.seed + 3*r.i
	r.i++
	return true
}

func sameRecs(t *testing.T, got, want []trace.Rec) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("stream length %d, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("record %d differs: got %+v want %+v", i, got[i], want[i])
		}
	}
}

// served is one Reader call's result, collected off the calling goroutine.
type served struct {
	recs     []trace.Rec
	outcome  Outcome
	random   bool // the reader implements trace.RandomAccess
	panicked bool
}

// readAsync runs Reader on its own goroutine and drains the stream.
func readAsync(c *Cache, workload string, src *synthSource) <-chan served {
	ch := make(chan served, 1)
	go func() {
		var s served
		defer func() {
			s.panicked = recover() != nil
			ch <- s
		}()
		r, release, out := c.Reader(workload, src.n, src.reader)
		defer release()
		_, s.random = r.(trace.RandomAccess)
		s.outcome = out
		s.recs = trace.Collect(r, 0)
	}()
	return ch
}

// waitFor polls cond until it holds, failing the test after ten seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// A capture serves its lead, the follower that joined it in flight, and a
// later replay the same stream, each through a random-access reader the
// timing core can serve zero-copy, from one emulation.
func TestCaptureThenReplay(t *testing.T) {
	src := &synthSource{seed: 7, n: 8315, gate: make(chan struct{})}
	c := New(64 << 20)

	lead := readAsync(c, "w", src)
	waitFor(t, "the capture to start", func() bool { return c.Stats().Capturing == 1 })
	follower := readAsync(c, "w", src)
	waitFor(t, "the follower to join", func() bool { return c.Stats().Follows == 1 })
	close(src.gate)

	check := func(got served, want Outcome) {
		t.Helper()
		if got.outcome != want {
			t.Fatalf("outcome %q, want %q", got.outcome, want)
		}
		if !got.random {
			t.Errorf("%s reader does not implement trace.RandomAccess", want)
		}
		sameRecs(t, got.recs, src.expected())
	}
	check(<-lead, OutcomeCapture)
	check(<-follower, OutcomeFollow)
	check(<-readAsync(c, "w", src), OutcomeReplay)

	if got := src.built.Load(); got != 1 {
		t.Errorf("source constructed %d times, want 1", got)
	}
	s := c.Stats()
	if s.Captures != 1 || s.CapturesDone != 1 || s.Follows != 1 || s.Replays != 1 || s.Emulations != 1 {
		t.Errorf("stats %+v: want 1 capture, 1 done, 1 follow, 1 replay, 1 emulation", s)
	}
	if want := int64(src.n) * RecSize; s.ResidentBytes != want || s.Entries != 1 {
		t.Errorf("resident %d bytes / %d entries, want %d / 1", s.ResidentBytes, s.Entries, want)
	}
	if s.CapturingBytes != 0 || s.Capturing != 0 {
		t.Errorf("in-flight accounting not drained: %+v", s)
	}
	if hr := s.HitRatio(); hr != 2.0/3 {
		t.Errorf("hit ratio %v, want 2/3 (1 follow + 1 replay of 3 readers)", hr)
	}
}

// Concurrent readers over one key: single-flight (one emulation) and every
// stream identical. CI runs this under -race.
func TestConcurrentReadersSingleFlight(t *testing.T) {
	src := &synthSource{seed: 17, n: 16483}
	c := New(64 << 20)
	want := src.expected()

	const readers = 8
	var wg sync.WaitGroup
	errs := make(chan string, readers)
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r, release, _ := c.Reader("w", src.n, src.reader)
			defer release()
			got := trace.Collect(r, 0)
			if len(got) != len(want) {
				errs <- "short stream"
				return
			}
			for j := range got {
				if got[j] != want[j] {
					errs <- "stream diverged"
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	s := c.Stats()
	if got := src.built.Load(); got != 1 {
		t.Fatalf("source constructed %d times, want 1 (single-flight)", got)
	}
	if s.Emulations != 1 || s.Captures != 1 || s.Replays+s.Follows != readers-1 {
		t.Errorf("stats %+v: want 1 emulation, 1 capture, %d replay+follow", s, readers-1)
	}
}

func TestBypassPaths(t *testing.T) {
	src := &synthSource{seed: 19, n: 64}

	var nilCache *Cache
	r, release, out := nilCache.Reader("w", src.n, src.reader)
	if out != OutcomeBypass {
		t.Fatalf("nil cache outcome %q, want bypass", out)
	}
	sameRecs(t, trace.Collect(r, 0), src.expected())
	release()
	if s := nilCache.Stats(); s != (Stats{}) {
		t.Errorf("nil cache stats %+v, want zero", s)
	}

	zero := New(0)
	if _, rel, out := zero.Reader("w", src.n, src.reader); out != OutcomeBypass {
		t.Errorf("zero-budget outcome %q, want bypass", out)
	} else {
		rel()
	}

	c := New(16 * RecSize)
	if _, rel, out := c.Reader("w", 0, src.reader); out != OutcomeBypass {
		t.Errorf("instrs=0 outcome %q, want bypass", out)
	} else {
		rel()
	}
	if _, rel, out := c.Reader("w", 17, src.reader); out != OutcomeBypass {
		t.Errorf("over-budget outcome %q, want bypass", out)
	} else {
		rel()
	}
	s := c.Stats()
	if s.Bypasses != 2 || s.TooLarge != 1 {
		t.Errorf("stats %+v: want 2 bypasses, 1 too-large (instrs=0 is not too-large)", s)
	}
}

// Reserving a second capture under a budget that holds only one stream
// evicts the least-recently-used entry; a reader for the victim re-captures.
func TestEvictionUnderPressure(t *testing.T) {
	const n = 4596
	a := &synthSource{seed: 23, n: n}
	b := &synthSource{seed: 29, n: n}
	c := New(int64(n+n/2) * RecSize) // one stream + headroom, not two

	ra, relA, _ := c.Reader("a", n, a.reader)
	sameRecs(t, trace.Collect(ra, 0), a.expected())
	relA()
	rb, relB, _ := c.Reader("b", n, b.reader)
	sameRecs(t, trace.Collect(rb, 0), b.expected())
	relB()

	s := c.Stats()
	if s.Evictions != 1 || s.Entries != 1 {
		t.Fatalf("stats %+v: want 1 eviction, 1 resident entry", s)
	}
	if want := int64(n) * RecSize; s.ResidentBytes != want {
		t.Fatalf("resident %d bytes, want %d", s.ResidentBytes, want)
	}

	// "b" survived (most recent); "a" re-captures.
	if _, rel, out := c.Reader("b", n, b.reader); out != OutcomeReplay {
		t.Errorf("survivor outcome %q, want replay", out)
	} else {
		rel()
	}
	if _, rel, out := c.Reader("a", n, a.reader); out != OutcomeCapture {
		t.Errorf("victim outcome %q, want re-capture", out)
	} else {
		rel()
	}
}

// A capture reserves its whole stream before it emulates. While one
// capture holds a reservation that leaves no room for a second, the second
// streams live, uncached, so correctness never depends on the budget and
// the budget is never overshot.
func TestCaptureBypassesWhenReservationFails(t *testing.T) {
	const n = 4196
	a := &synthSource{seed: 31, n: n, gate: make(chan struct{})}
	b := &synthSource{seed: 37, n: n}
	c := New(int64(n*3/2) * RecSize) // one stream, not two

	lead := readAsync(c, "a", a)
	waitFor(t, "the capture of a to start", func() bool { return c.Stats().Capturing == 1 })

	rb, relB, out := c.Reader("b", n, b.reader)
	if out != OutcomeBypass {
		t.Fatalf("outcome %q with the budget reserved, want bypass", out)
	}
	sameRecs(t, trace.Collect(rb, 0), b.expected())
	relB()
	s := c.Stats()
	if s.ResidentBytes+s.CapturingBytes > c.Budget() {
		t.Errorf("budget overshoot: %d resident + %d capturing > %d",
			s.ResidentBytes, s.CapturingBytes, c.Budget())
	}
	if s.CapturingBytes != int64(n)*RecSize || s.Capturing != 1 {
		t.Errorf("stats %+v: want one capture of %d bytes in flight", s, int64(n)*RecSize)
	}

	close(a.gate)
	got := <-lead
	if got.outcome != OutcomeCapture {
		t.Fatalf("lead outcome %q, want capture", got.outcome)
	}
	sameRecs(t, got.recs, a.expected())
	s = c.Stats()
	if s.Captures != 1 || s.CapturesDone != 1 || s.Bypasses != 1 || s.TooLarge != 0 {
		t.Errorf("stats %+v: want 1 capture retained, 1 bypass, 0 too-large", s)
	}
	if s.ResidentBytes+s.CapturingBytes > c.Budget() {
		t.Errorf("budget overshoot: %d resident + %d capturing > %d",
			s.ResidentBytes, s.CapturingBytes, c.Budget())
	}
}

// A lead whose source panics still finishes its flight: the follower
// parked on it gets the exact stream from a live emulator, the reservation
// is returned, and the next reader captures afresh.
func TestPanickingLeadReleasesFollowers(t *testing.T) {
	src := &synthSource{seed: 43, n: 5000, gate: make(chan struct{}), panicAt: 1234}
	c := New(64 << 20)

	lead := readAsync(c, "w", src)
	waitFor(t, "the capture to start", func() bool { return c.Stats().Capturing == 1 })
	follower := readAsync(c, "w", src)
	waitFor(t, "the follower to join", func() bool { return c.Stats().Follows == 1 })
	close(src.gate)

	if got := <-lead; !got.panicked {
		t.Fatalf("lead returned %q without the source's panic", got.outcome)
	}
	got := <-follower
	if got.panicked || got.outcome != OutcomeBypass {
		t.Fatalf("follower outcome %q (panicked %v), want a live bypass", got.outcome, got.panicked)
	}
	sameRecs(t, got.recs, src.expected())

	s := c.Stats()
	if s.Capturing != 0 || s.CapturingBytes != 0 || s.CapturesDone != 0 || s.Entries != 0 {
		t.Fatalf("stats %+v: want no capture in flight or retained", s)
	}
	if s.Emulations != 2 { // the lead + the follower's live stream
		t.Errorf("emulations = %d, want 2", s.Emulations)
	}
	next := <-readAsync(c, "w", src)
	if next.outcome != OutcomeCapture {
		t.Fatalf("next outcome %q, want a fresh capture", next.outcome)
	}
	sameRecs(t, next.recs, src.expected())
}

func TestNegativeBudgetIsDisabled(t *testing.T) {
	c := New(-5)
	src := &synthSource{seed: 41, n: 8}
	r, rel, out := c.Reader("w", src.n, src.reader)
	if out != OutcomeBypass {
		t.Fatalf("outcome %q, want bypass", out)
	}
	sameRecs(t, trace.Collect(r, 0), src.expected())
	rel()
	if s := c.Stats(); s.Bypasses != 1 || s.BudgetBytes != 0 {
		t.Errorf("stats %+v", s)
	}
}
