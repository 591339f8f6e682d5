package server

import (
	"fmt"
	"net/http"

	"dlvp/internal/timeline"
)

// timelineFor resolves the flight-recorder series for a run job: the live
// recorder's partial view while the simulation executes, the cached result's
// finished timeline afterwards. Timelines come from the local engine only —
// dispatcher-forwarded jobs that executed on a peer have none here.
func (s *Server) timelineFor(key, workload, scheme string) (*timeline.Timeline, bool) {
	if rec := s.runner.LiveTimeline(key); rec != nil {
		return rec.Partial(workload, scheme), true
	}
	if res, ok := s.runner.CachedResult(key); ok && res.Timeline != nil {
		return res.Timeline, true
	}
	return nil, false
}

// resolveRunJob maps a /v1/runs/{id}/... path to the async run job's
// linkage, writing the error response itself when the job is unusable.
func (s *Server) resolveRunJob(w http.ResponseWriter, r *http.Request) (key, workload, scheme string, ok bool) {
	j, found := s.jobs.get(r.PathValue("id"))
	if !found {
		s.writeJSON(w, r, http.StatusNotFound, errorBody{Error: "unknown job id"})
		return "", "", "", false
	}
	key, workload, scheme = j.runInfo()
	if key == "" {
		s.writeJSON(w, r, http.StatusNotFound, errorBody{
			Error: fmt.Sprintf("job %q is a %s job, not a run; only runs record timelines", j.id, j.kind)})
		return "", "", "", false
	}
	return key, workload, scheme, true
}

// handleRunTimeline serves GET /v1/runs/{id}/timeline: the interval
// flight-recorder series for an async run job, as JSON or — with
// ?format=prom — in the Prometheus text exposition format.
func (s *Server) handleRunTimeline(w http.ResponseWriter, r *http.Request) {
	key, workload, scheme, ok := s.resolveRunJob(w, r)
	if !ok {
		return
	}
	tl, ok := s.timelineFor(key, workload, scheme)
	if !ok {
		s.writeJSON(w, r, http.StatusNotFound, errorBody{
			Error: "no timeline for this run: recording disabled, job not started, or result evicted"})
		return
	}
	switch format := r.URL.Query().Get("format"); format {
	case "", "json":
		s.writeJSON(w, r, http.StatusOK, tl)
	case "prom":
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		timeline.WritePrometheus(w, tl)
	default:
		s.writeJSON(w, r, http.StatusBadRequest, errorBody{
			Error: fmt.Sprintf("unknown format %q", format), Known: []string{"json", "prom"}})
	}
}

// handleRunTimelineStream serves GET /v1/runs/{id}/timeline/stream: a
// Server-Sent Events tail of a run's flight recorder. Each interval sample
// arrives as an "event: sample" with the Sample JSON in data; when
// downsampling rewrites history mid-run an "event: reset" precedes the
// full resend; "event: done" closes a completed run's stream. A stream
// opened before the job starts waits for the recorder to appear.
func (s *Server) handleRunTimelineStream(w http.ResponseWriter, r *http.Request) {
	key, _, _, ok := s.resolveRunJob(w, r)
	if !ok {
		return
	}
	sent := 0    // samples already delivered at the current generation
	lastGen := 0 // downsampling generation of the delivered samples
	s.serveSSE(w, r, func() ([]sseEvent, bool) {
		var events []sseEvent
		send := func(samples []timeline.Sample) {
			for ; sent < len(samples); sent++ {
				events = append(events, sseEvent{"sample", samples[sent]})
			}
		}
		if rec := s.runner.LiveTimeline(key); rec != nil {
			samples, gen := rec.Snapshot()
			if gen != lastGen {
				// Downsampling merged neighbours: everything the client
				// holds is stale; resend the rewritten history.
				events = append(events, sseEvent{name: "reset"})
				sent, lastGen = 0, gen
			}
			send(samples)
			return events, false
		}
		if res, ok := s.runner.CachedResult(key); ok && res.Timeline != nil {
			// The run finished (or was already cached): deliver whatever the
			// client has not seen and close. A finished timeline at a newer
			// generation than the live samples we streamed starts over.
			if res.Timeline.Merges != lastGen {
				events = append(events, sseEvent{name: "reset"})
				sent = 0
			}
			send(res.Timeline.Samples)
			return append(events, sseEvent{name: "done"}), true
		}
		if j, ok := s.jobs.get(r.PathValue("id")); ok && j.terminal() {
			// Terminal job with nothing live and nothing cached: either it
			// failed, or the engine runs without a result cache. Close the
			// stream rather than poll forever.
			if j.currentStatus() == statusError {
				return []sseEvent{{name: "error"}}, true
			}
			return []sseEvent{{name: "done"}}, true
		}
		return nil, false
	})
}
