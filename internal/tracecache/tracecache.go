// Package tracecache is a byte-budgeted, concurrency-safe capture/replay
// cache for functional-emulation trace streams, keyed by (workload,
// instruction budget).
//
// Every experiment matrix sweeps many core configurations over the same
// workloads, yet each timing simulation re-runs the functional emulator
// over an identical instruction stream. The stream is fully determined by
// (workload, instrs) — the emulator takes no configuration — so the cache
// records it once and replays the buffered records to every other
// configuration:
//
//   - the first reader for a key becomes the capture *lead*: it streams
//     from the live emulator while appending each trace.Rec (a fixed-size
//     value struct — cheap to copy) into an in-memory buffer;
//   - concurrent readers for the same key *follow* the capture
//     (single-flight: one emulation no matter how many configurations ask
//     at once), tailing the published prefix lock-free and parking only
//     when they catch up to the lead;
//   - once a capture completes, later readers get a pure replay of the
//     buffered records with zero re-emulation;
//   - a capture that is abandoned (its simulation stopped early) or that
//     runs out of budget fails open: followers transparently fall back to
//     a fresh emulator, skipping the records they already consumed, so a
//     reader always observes the exact stream the live emulator would have
//     produced.
//
// The byte budget bounds resident memory: complete captures live in an LRU
// keyed by bytes, in-flight captures count against the same budget, and a
// stream whose upper bound (instrs × record size) cannot fit is bypassed
// to live emulation without buffering.
package tracecache

import (
	"sync"
	"sync/atomic"
	"unsafe"

	"dlvp/internal/lru"
	"dlvp/internal/trace"
)

// RecSize is the in-memory size of one buffered trace record; the byte
// budget is accounted in these units.
const RecSize = int64(unsafe.Sizeof(trace.Rec{}))

// publishChunk is how many records the capture lead appends between
// visibility publications. Followers lag the lead by at most this many
// records; the lead pays one atomic store and one channel close per chunk.
const publishChunk = 4096

// Outcome classifies how a Reader call was served.
type Outcome string

const (
	// OutcomeCapture: this reader is the lead recording a live emulation.
	OutcomeCapture Outcome = "capture"
	// OutcomeReplay: served entirely from a completed capture.
	OutcomeReplay Outcome = "replay"
	// OutcomeFollow: tailing a capture another reader is recording.
	OutcomeFollow Outcome = "follow"
	// OutcomeBypass: served by live emulation without recording (cache
	// disabled, zero budget, or the stream cannot fit the budget).
	OutcomeBypass Outcome = "bypass"
)

// snapshot is the immutable published view of one capture. Records
// [0, len(recs)) are final and safe to read concurrently; the lead appends
// beyond len into the same backing array before publishing the next view.
type snapshot struct {
	recs     []trace.Rec
	complete bool // stream ended; recs is the whole trace
	failed   bool // capture aborted; readers past recs must re-emulate
}

// key names one stream: the first instrs records of workload.
type key struct {
	workload string
	instrs   uint64
}

// entry is one stream, either mid-capture or complete.
type entry struct {
	key    key
	source func() trace.Reader

	snap atomic.Pointer[snapshot]

	// wake is closed and replaced after every publication so parked
	// followers re-check the snapshot.
	mu   sync.Mutex
	wake chan struct{}
}

func (e *entry) publish(s *snapshot) {
	e.snap.Store(s)
	e.mu.Lock()
	close(e.wake)
	e.wake = make(chan struct{})
	e.mu.Unlock()
}

// Stats is a snapshot of the cache counters.
type Stats struct {
	BudgetBytes     int64 `json:"budget_bytes"`
	ResidentBytes   int64 `json:"resident_bytes"`  // complete captures held
	CapturingBytes  int64 `json:"capturing_bytes"` // published bytes of live captures
	Entries         int   `json:"entries"`         // complete captures resident
	Capturing       int   `json:"capturing"`       // captures in flight now
	Captures        int64 `json:"captures"`        // capture leads started
	CapturesDone    int64 `json:"captures_done"`   // captures that completed and were retained
	CapturesAborted int64 `json:"captures_aborted"`
	Replays         int64 `json:"replays"` // readers served from a complete capture
	Follows         int64 `json:"follows"` // readers that tailed a live capture
	Bypasses        int64 `json:"bypasses"`
	Fallbacks       int64 `json:"fallbacks"` // followers that resumed on a live emulator
	Evictions       int64 `json:"evictions"`
	TooLarge        int64 `json:"too_large"`  // streams whose bound exceeds the budget
	Emulations      int64 `json:"emulations"` // live emulator streams constructed
}

// HitRatio returns the fraction of readers served without starting a new
// emulation (replays and follows over all readers), in [0, 1].
func (s Stats) HitRatio() float64 {
	total := s.Replays + s.Follows + s.Captures + s.Bypasses
	if total == 0 {
		return 0
	}
	return float64(s.Replays+s.Follows) / float64(total)
}

// Cache is the capture/replay cache. The zero value is not usable;
// construct with New. A nil *Cache is a valid "disabled" cache: Reader
// bypasses to live emulation.
type Cache struct {
	budget int64

	// resident holds complete captures costed in bytes; in-flight captures
	// (live) share its budget, so Trim(live) evicts for both. Evicted
	// streams stay valid for readers already holding their snapshot — the
	// records are immutable and garbage-collected with the last reader.
	mu        sync.Mutex
	resident  *lru.Cache[key, *entry]
	capturing map[key]*entry
	live      int64 // published bytes of in-flight captures

	captures        int64
	capturesDone    int64
	capturesAborted int64
	replays         int64
	follows         int64
	bypasses        int64
	fallbacks       int64
	evictions       int64
	tooLarge        int64
	emulations      int64
}

// New returns a cache retaining up to budget bytes of trace records.
// A non-positive budget yields a cache that bypasses everything (every
// reader is live emulation), which keeps callers free of nil checks.
func New(budget int64) *Cache {
	if budget < 0 {
		budget = 0
	}
	return &Cache{budget: budget, resident: lru.New[key, *entry](budget), capturing: make(map[key]*entry)}
}

// Budget reports the configured byte budget.
func (c *Cache) Budget() int64 {
	if c == nil {
		return 0
	}
	return c.budget
}

// Reader returns a trace.Reader for the (workload, instrs) stream, a
// release function the caller must invoke once it is done with the reader,
// and the outcome describing how the stream is served. source constructs a
// fresh live emulation stream; the cache calls it for capture leads,
// bypasses, and fallbacks only.
//
// The returned reader produces exactly the records source() would,
// regardless of outcome. Reader never blocks; a follower parks inside Next
// only while the lead is still producing, and wakes to a transparent live
// fallback if the lead abandons its capture.
func (c *Cache) Reader(workload string, instrs uint64, source func() trace.Reader) (trace.Reader, func(), Outcome) {
	nop := func() {}
	if c == nil || c.budget == 0 {
		if c != nil {
			c.mu.Lock()
			c.bypasses++
			c.emulations++
			c.mu.Unlock()
		}
		return source(), nop, OutcomeBypass
	}
	// An unbounded stream (instrs == 0) or one whose upper bound cannot
	// fit is never buffered. The bound is conservative: a program that
	// halts early would have fit, but workload kernels run forever and
	// always fill their budget.
	if instrs == 0 || int64(instrs) > c.budget/RecSize {
		c.mu.Lock()
		c.bypasses++
		c.emulations++
		if instrs != 0 {
			c.tooLarge++
		}
		c.mu.Unlock()
		return source(), nop, OutcomeBypass
	}

	k := key{workload, instrs}
	c.mu.Lock()
	if e, ok := c.resident.Get(k); ok {
		c.replays++
		c.mu.Unlock()
		return &replayReader{c: c, e: e}, nop, OutcomeReplay
	}
	if e, ok := c.capturing[k]; ok {
		c.follows++
		c.mu.Unlock()
		return &replayReader{c: c, e: e}, nop, OutcomeFollow
	}
	e := &entry{key: k, source: source, wake: make(chan struct{})}
	e.snap.Store(&snapshot{})
	c.capturing[k] = e
	c.captures++
	c.emulations++
	c.mu.Unlock()

	cap := &captureReader{c: c, e: e, inner: source(), buf: make([]trace.Rec, 0, instrs)}
	return cap, cap.release, OutcomeCapture
}

// Stats snapshots the cache counters.
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		BudgetBytes:     c.budget,
		ResidentBytes:   c.resident.Used(),
		CapturingBytes:  c.live,
		Entries:         c.resident.Len(),
		Capturing:       len(c.capturing),
		Captures:        c.captures,
		CapturesDone:    c.capturesDone,
		CapturesAborted: c.capturesAborted,
		Replays:         c.replays,
		Follows:         c.follows,
		Bypasses:        c.bypasses,
		Fallbacks:       c.fallbacks,
		Evictions:       c.evictions,
		TooLarge:        c.tooLarge,
		Emulations:      c.emulations,
	}
}

// --- capture (lead) ----------------------------------------------------------

// captureReader streams from the live emulator, buffering every record and
// periodically publishing the prefix to followers.
type captureReader struct {
	c        *Cache
	e        *entry
	inner    trace.Reader
	buf      []trace.Rec
	pub      int  // records already published
	done     bool // completed or aborted
	bypassed bool // budget pressure: stop buffering, keep streaming
}

func (r *captureReader) Next(rec *trace.Rec) bool {
	if !r.inner.Next(rec) {
		if !r.done {
			r.finish()
		}
		return false
	}
	if !r.bypassed {
		r.buf = append(r.buf, *rec)
		if len(r.buf)-r.pub >= publishChunk {
			r.publishChunk(false)
		}
	}
	return true
}

// publishChunk makes the buffered prefix visible and charges it against
// the budget, evicting resident entries under pressure. If the in-flight
// captures alone exceed the budget, this capture aborts (streaming
// continues uncached; followers fall back).
func (r *captureReader) publishChunk(final bool) {
	delta := int64(len(r.buf)-r.pub) * RecSize
	c := r.c
	c.mu.Lock()
	c.live += delta
	c.evictions += int64(c.resident.Trim(c.live))
	if c.resident.Used()+c.live > c.budget {
		// Another capture (or this one) outgrew the budget with nothing
		// left to evict; fail this capture open rather than overshoot.
		c.live -= int64(len(r.buf)) * RecSize
		c.capturesAborted++
		delete(c.capturing, r.e.key)
		c.mu.Unlock()
		r.bypassed, r.done = true, true
		r.buf = nil
		r.e.publish(&snapshot{recs: r.e.snap.Load().recs, failed: true})
		return
	}
	c.mu.Unlock()
	r.pub = len(r.buf)
	if !final {
		r.e.publish(&snapshot{recs: r.buf[:r.pub]})
	}
}

// finish moves the entry into the resident LRU, then publishes the
// complete stream. A reader that finds the entry resident before the
// publication replays it, parking until the final records appear.
func (r *captureReader) finish() {
	r.publishChunk(true)
	if r.done { // aborted by the final budget check
		return
	}
	r.done = true
	c := r.c
	size := int64(len(r.buf)) * RecSize
	c.mu.Lock()
	c.live -= size
	delete(c.capturing, r.e.key)
	c.capturesDone++
	c.evictions += int64(c.resident.Add(r.e.key, r.e, size) + c.resident.Trim(c.live))
	c.mu.Unlock()
	r.e.publish(&snapshot{recs: r.buf, complete: true})
}

// release aborts the capture if the stream was not fully consumed (the
// simulation stopped early or panicked); followers fall back to live
// emulation. Safe to call after normal completion, where it is a no-op.
func (r *captureReader) release() {
	if r.done {
		return
	}
	r.done, r.bypassed = true, true
	c := r.c
	c.mu.Lock()
	c.live -= int64(r.pub) * RecSize
	c.capturesAborted++
	delete(c.capturing, r.e.key)
	c.mu.Unlock()
	r.e.publish(&snapshot{recs: r.e.snap.Load().recs, failed: true})
	r.buf = nil
}

// --- replay / follow ---------------------------------------------------------

// replayReader streams a captured entry: lock-free over the published
// prefix, parking only when it catches up to a live capture, and falling
// back to a fresh emulator if the capture fails.
type replayReader struct {
	c        *Cache
	e        *entry
	pos      int
	fallback trace.Reader
}

func (r *replayReader) Next(rec *trace.Rec) bool {
	if r.fallback != nil {
		return r.fallback.Next(rec)
	}
	for {
		snap := r.e.snap.Load()
		if r.pos < len(snap.recs) {
			*rec = snap.recs[r.pos]
			r.pos++
			return true
		}
		if snap.complete {
			return false
		}
		if snap.failed {
			r.startFallback()
			return r.fallback.Next(rec)
		}
		// Caught up with the lead: grab the wake channel, then re-check
		// the snapshot so a publication between load and grab is never
		// missed (the publisher stores the snapshot before closing wake).
		r.e.mu.Lock()
		ch := r.e.wake
		r.e.mu.Unlock()
		if r.e.snap.Load() != snap {
			continue
		}
		<-ch
	}
}

// startFallback resumes the stream on a fresh live emulator, discarding
// the records this reader already delivered. The emulator is
// deterministic, so the resumed stream continues exactly where the
// published prefix ended.
func (r *replayReader) startFallback() {
	c := r.c
	c.mu.Lock()
	c.fallbacks++
	c.emulations++
	c.mu.Unlock()
	r.fallback = r.e.source()
	var skip trace.Rec
	for i := 0; i < r.pos; i++ {
		if !r.fallback.Next(&skip) {
			break
		}
	}
}
