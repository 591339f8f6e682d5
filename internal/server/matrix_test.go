package server

import (
	"bufio"
	"net/http"
	"strings"
	"testing"
	"time"

	"dlvp/internal/matrix"
)

func submitMatrix(t *testing.T, url string, body any) matrixSubmitResponse {
	t.Helper()
	resp := postJSON(t, url+"/v1/matrices", body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("matrix submission status = %d, want 202", resp.StatusCode)
	}
	return decode[matrixSubmitResponse](t, resp)
}

func pollMatrixDone(t *testing.T, url, id string) matrix.View {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		v := decode[matrix.View](t, mustGet(t, url+"/v1/matrices/"+id))
		if v.Status != matrix.StatusRunning {
			return v
		}
		if time.Now().After(deadline) {
			t.Fatalf("matrix %s still %s: %+v", id, v.Status, v.Counts)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestMatrixEndpointLifecycle(t *testing.T) {
	_, ts := newTestServer(t)
	acc := submitMatrix(t, ts.URL, map[string]any{
		"workloads": []string{"linpack", "soplex"},
		"schemes":   []string{"baseline", "dlvp"},
		"instrs":    testInstrs,
	})
	if acc.Shards != 2 || acc.Cells != 4 {
		t.Fatalf("accepted %d shards / %d cells, want 2/4", acc.Shards, acc.Cells)
	}
	if acc.Poll == "" || acc.Stream == "" {
		t.Fatalf("missing poll/stream links: %+v", acc)
	}

	v := pollMatrixDone(t, ts.URL, acc.ID)
	if v.Status != matrix.StatusDone {
		t.Fatalf("status = %s (%s)", v.Status, v.Error)
	}
	if v.CellsDone != 4 || len(v.Tables) == 0 {
		t.Fatalf("cells done = %d tables = %d", v.CellsDone, len(v.Tables))
	}
	for _, sv := range v.Shards {
		if sv.State != matrix.ShardDone || sv.Owner == "" {
			t.Fatalf("shard %+v not done with owner", sv)
		}
	}

	var list struct {
		Matrices []matrixListItem `json:"matrices"`
	}
	list = decode[struct {
		Matrices []matrixListItem `json:"matrices"`
	}](t, mustGet(t, ts.URL+"/v1/matrices"))
	if len(list.Matrices) != 1 || list.Matrices[0].ID != acc.ID {
		t.Fatalf("list = %+v", list.Matrices)
	}
}

func TestMatrixEndpointValidation(t *testing.T) {
	_, ts := newTestServer(t)
	for name, body := range map[string]any{
		"unknown scheme":   map[string]any{"schemes": []string{"nope"}, "instrs": testInstrs},
		"unknown workload": map[string]any{"workloads": []string{"ghost"}, "instrs": testInstrs},
		"instrs over cap":  map[string]any{"schemes": []string{"baseline"}, "instrs": 100_000_000_000},
	} {
		resp := postJSON(t, ts.URL+"/v1/matrices", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", name, resp.StatusCode)
		}
		resp.Body.Close()
	}
	if resp := mustGet(t, ts.URL+"/v1/matrices/nope"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown matrix status = %d, want 404", resp.StatusCode)
	} else {
		resp.Body.Close()
	}
	resp := postJSON(t, ts.URL+"/v1/matrices/nope/cancel", map[string]any{})
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("cancel unknown matrix status = %d, want 404", resp.StatusCode)
	}
	resp.Body.Close()
}

// The SSE endpoint must deliver one shard event per completed shard
// (each carrying partial tables) and close with the terminal event.
func TestMatrixStreamSSE(t *testing.T) {
	oldPoll := streamPoll
	streamPoll = 2 * time.Millisecond
	t.Cleanup(func() { streamPoll = oldPoll })

	_, ts := newTestServer(t)
	acc := submitMatrix(t, ts.URL, map[string]any{
		"workloads": []string{"linpack", "soplex", "milc"},
		"schemes":   []string{"baseline", "dlvp"},
		"instrs":    testInstrs,
	})

	resp := mustGet(t, ts.URL+acc.Stream)
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type = %q", ct)
	}
	shards, terminal := 0, ""
	sawTables := false
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "event: shard":
			shards++
		case line == "event: done" || line == "event: cancelled" || line == "event: error":
			terminal = line
		case strings.HasPrefix(line, "data: "):
			if terminal == "" && shards > 0 && !sawTables {
				sawTables = strings.Contains(line, `"tables"`)
			}
		}
		if terminal != "" {
			break
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("stream read: %v", err)
	}
	if terminal != "event: done" {
		t.Fatalf("terminal = %q, want done", terminal)
	}
	if shards != 3 {
		t.Fatalf("streamed %d shard events, want 3", shards)
	}
	if !sawTables {
		t.Fatal("shard events carried no partial tables")
	}

	// A late subscriber replays the log and sees the same terminal event.
	resp2 := mustGet(t, ts.URL+acc.Stream)
	defer resp2.Body.Close()
	sc2 := bufio.NewScanner(resp2.Body)
	sc2.Buffer(make([]byte, 1<<20), 1<<20)
	replayShards, replayDone := 0, false
	for sc2.Scan() {
		switch sc2.Text() {
		case "event: shard":
			replayShards++
		case "event: done":
			replayDone = true
		}
		if replayDone {
			break
		}
	}
	if !replayDone || replayShards != 3 {
		t.Fatalf("replay: done=%v shards=%d", replayDone, replayShards)
	}
}

// An open stream on a still-running matrix must end when shutdown begins:
// http.Server.Shutdown waits for in-flight requests without cancelling
// their contexts, and an interrupted matrix deliberately never goes
// terminal, so without this the connected client stalls shutdown for the
// whole grace period.
func TestMatrixStreamEndsOnShutdown(t *testing.T) {
	oldPoll := streamPoll
	streamPoll = 2 * time.Millisecond
	t.Cleanup(func() { streamPoll = oldPoll })

	s, ts := newTestServer(t)
	// A wide sweep of full-size runs keeps the matrix in flight.
	acc := submitMatrix(t, ts.URL, map[string]any{
		"schemes": []string{"baseline", "dlvp", "cap", "vtage"},
		"instrs":  2_000_000,
	})
	resp := mustGet(t, ts.URL+acc.Stream)
	defer resp.Body.Close()

	closed := make(chan error, 1)
	go func() {
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
		}
		closed <- sc.Err()
	}()

	s.BeginShutdown()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatalf("stream read after shutdown: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("stream still open after BeginShutdown")
	}
}

func TestMatrixCancelEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	// A wide sweep of full-size runs outlives the cancel round-trip.
	acc := submitMatrix(t, ts.URL, map[string]any{
		"schemes": []string{"baseline", "dlvp", "cap", "vtage"},
		"instrs":  2_000_000,
	})
	resp := postJSON(t, ts.URL+"/v1/matrices/"+acc.ID+"/cancel", map[string]any{})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel status = %d", resp.StatusCode)
	}
	resp.Body.Close()
	v := pollMatrixDone(t, ts.URL, acc.ID)
	if v.Status != matrix.StatusCancelled {
		t.Fatalf("status = %s", v.Status)
	}
	if v.Counts.Failed != 0 {
		t.Fatalf("cancellation produced failed shards: %+v", v.Counts)
	}
}
