package server

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"dlvp/internal/runner"
	"dlvp/internal/timeline"
)

// newTimelineTestServer builds a server whose engine records flight-recorder
// timelines at a small interval, so short test runs produce many samples.
func newTimelineTestServer(t *testing.T, intervalInstrs uint64) (*Server, *httptest.Server) {
	t.Helper()
	s := New(Options{Runner: runner.New(runner.Options{
		Timeline: runner.TimelineOptions{Enabled: true, IntervalInstrs: intervalInstrs},
	})})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

// submitAsyncRun posts an async run and returns its job ID.
func submitAsyncRun(t *testing.T, ts *httptest.Server, workload string, instrs uint64) string {
	t.Helper()
	resp := postJSON(t, ts.URL+"/v1/runs",
		map[string]any{"workload": workload, "scheme": "dlvp", "instrs": instrs, "async": true})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status = %d, want 202", resp.StatusCode)
	}
	return decode[acceptedResponse](t, resp).JobID
}

// waitForJob polls until the job reaches a terminal state.
func waitForJob(t *testing.T, ts *httptest.Server, id string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		view := decode[jobView](t, mustGet(t, ts.URL+"/v1/jobs/"+id))
		switch view.Status {
		case statusDone:
			if view.Timeline == "" {
				t.Fatalf("done run job advertises no timeline link: %+v", view)
			}
			return
		case statusError:
			t.Fatalf("job failed: %s", view.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %q", view.Status)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestRunTimelineEndpoint(t *testing.T) {
	_, ts := newTimelineTestServer(t, 500)
	id := submitAsyncRun(t, ts, "perlbmk", testInstrs)
	waitForJob(t, ts, id)

	resp := mustGet(t, ts.URL+"/v1/runs/"+id+"/timeline")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	tl := decode[timeline.Timeline](t, resp)
	if tl.Workload != "perlbmk" || tl.Partial {
		t.Errorf("timeline header = %q partial=%v", tl.Workload, tl.Partial)
	}
	if len(tl.Samples) < 2 {
		t.Fatalf("samples = %d, want >= 2 at interval 500 over %d instrs", len(tl.Samples), testInstrs)
	}
	if got := tl.Totals().Instructions; got != testInstrs {
		t.Errorf("timeline instructions total = %d, want %d", got, testInstrs)
	}

	prom := mustGet(t, ts.URL+"/v1/runs/"+id+"/timeline?format=prom")
	defer prom.Body.Close()
	body, err := io.ReadAll(prom.Body)
	if err != nil {
		t.Fatalf("read prom body: %v", err)
	}
	if !strings.Contains(string(body), "dlvp_timeline_ipc{workload=\"perlbmk\"") {
		t.Error("prometheus exposition missing dlvp_timeline_ipc series")
	}
	if ct := prom.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("prom content type = %q", ct)
	}

	if resp := mustGet(t, ts.URL+"/v1/runs/"+id+"/timeline?format=bogus"); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bogus format status = %d, want 400", resp.StatusCode)
	} else {
		resp.Body.Close()
	}
	if resp := mustGet(t, ts.URL+"/v1/runs/nope/timeline"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job status = %d, want 404", resp.StatusCode)
	} else {
		resp.Body.Close()
	}
}

// Experiment jobs have no single simulation, hence no timeline.
func TestRunTimelineRejectsNonRunJobs(t *testing.T) {
	_, ts := newTimelineTestServer(t, 500)
	resp := postJSON(t, ts.URL+"/v1/experiments/fig4",
		map[string]any{"instrs": testInstrs, "workloads": []string{"perlbmk"}, "async": true})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("experiment submission status = %d, want 202", resp.StatusCode)
	}
	id := decode[acceptedResponse](t, resp).JobID
	tlResp := mustGet(t, ts.URL+"/v1/runs/"+id+"/timeline")
	defer tlResp.Body.Close()
	if tlResp.StatusCode != http.StatusNotFound {
		t.Errorf("experiment timeline status = %d, want 404", tlResp.StatusCode)
	}
}

// The SSE endpoint must stream at least two interval samples from a live
// job and terminate with a done event.
func TestRunTimelineStreamSSE(t *testing.T) {
	oldPoll := streamPoll
	streamPoll = 2 * time.Millisecond
	t.Cleanup(func() { streamPoll = oldPoll })

	_, ts := newTimelineTestServer(t, 1_000)
	// A long-enough run that the stream attaches while intervals are still
	// being produced; the handler also waits for a queued job to start.
	id := submitAsyncRun(t, ts, "mcf", 200_000)

	resp := mustGet(t, ts.URL+"/v1/runs/"+id+"/timeline/stream")
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type = %q, want text/event-stream", ct)
	}
	samples, done := 0, false
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "event: sample":
			samples++
		case line == "event: reset":
			samples = 0 // downsampling rewrote history; later events resend
		case line == "event: done":
			done = true
		case line == "event: error":
			t.Fatal("stream reported job error")
		}
		if done {
			break
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("stream read: %v", err)
	}
	if !done {
		t.Error("stream ended without a done event")
	}
	if samples < 2 {
		t.Fatalf("streamed %d interval samples, want >= 2", samples)
	}
}

func TestTracesLimit(t *testing.T) {
	_, ts := newTestServer(t)
	// Generate some traced requests. Anonymous /healthz hits are untraced
	// (probe-noise suppression), so supply explicit request IDs.
	for i := 0; i < 5; i++ {
		req, _ := http.NewRequest(http.MethodGet, ts.URL+"/healthz", nil)
		req.Header.Set("X-Request-ID", fmt.Sprintf("trace-limit-%d", i))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	type envelope struct {
		Count int `json:"count"`
		Total int `json:"total"`
		Limit int `json:"limit"`
	}
	env := decode[envelope](t, mustGet(t, ts.URL+"/v1/traces"))
	if env.Limit != DefaultTraceListLimit {
		t.Errorf("default limit = %d, want %d", env.Limit, DefaultTraceListLimit)
	}
	if env.Total < 5 || env.Count > env.Limit {
		t.Errorf("envelope = %+v", env)
	}

	env = decode[envelope](t, mustGet(t, ts.URL+"/v1/traces?limit=2"))
	if env.Count != 2 || env.Limit != 2 || env.Total < 5 {
		t.Errorf("limited envelope = %+v", env)
	}

	env = decode[envelope](t, mustGet(t, ts.URL+"/v1/traces?limit=99999"))
	if env.Limit != MaxTraceListLimit {
		t.Errorf("oversized limit clamped to %d, want %d", env.Limit, MaxTraceListLimit)
	}

	for _, bad := range []string{"0", "-3", "junk"} {
		resp := mustGet(t, ts.URL+"/v1/traces?limit="+bad)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("limit=%s status = %d, want 400", bad, resp.StatusCode)
		}
		resp.Body.Close()
	}
}
