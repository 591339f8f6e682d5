package obs

import (
	"errors"
	"strings"
	"testing"
)

func TestMergeExpositionsInjectsInstanceLabels(t *testing.T) {
	a := NewRegistry()
	a.Counter("reqs_total", "Requests.", "route").With("/v1/runs").Add(3)
	a.GaugeFunc("up_seconds", "Uptime.", func() float64 { return 7 })
	b := NewRegistry()
	b.Counter("reqs_total", "Requests.", "route").With("/v1/runs").Add(5)

	var ta, tb strings.Builder
	a.WritePrometheus(&ta)
	b.WritePrometheus(&tb)
	out := MergeExpositions([]Exposition{
		{Instance: "local", Text: ta.String()},
		{Instance: "http://peer:1", Text: tb.String()},
	})

	for _, want := range []string{
		`reqs_total{instance="local",route="/v1/runs"} 3`,
		`reqs_total{instance="http://peer:1",route="/v1/runs"} 5`,
		`up_seconds{instance="local"} 7`,
		`dlvpd_federation_peer_up{instance="local"} 1`,
		`dlvpd_federation_peer_up{instance="http://peer:1"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("merged exposition missing %q:\n%s", want, out)
		}
	}
	// HELP/TYPE for a family shared across instances appears exactly once.
	if got := strings.Count(out, "# TYPE reqs_total counter"); got != 1 {
		t.Errorf("TYPE reqs_total appears %d times, want 1:\n%s", got, out)
	}
	validateExposition(t, out)
}

func TestMergeExpositionsGroupsHistogramFamilies(t *testing.T) {
	mk := func() string {
		r := NewRegistry()
		r.Histogram("lat_seconds", "Latency.", []float64{1}).With().Observe(0.5)
		r.Counter("other_total", "Other.").With().Inc()
		var b strings.Builder
		r.WritePrometheus(&b)
		return b.String()
	}
	out := MergeExpositions([]Exposition{
		{Instance: "a", Text: mk()},
		{Instance: "b", Text: mk()},
	})
	// All lat_seconds samples (both instances) must sit in one block under
	// one TYPE line — the validator enforces block integrity.
	validateExposition(t, out)
	if got := strings.Count(out, "# TYPE lat_seconds histogram"); got != 1 {
		t.Errorf("TYPE lat_seconds appears %d times, want 1:\n%s", got, out)
	}
	for _, want := range []string{
		`lat_seconds_bucket{instance="a",le="1"} 1`,
		`lat_seconds_sum{instance="b"} 0.5`,
		`lat_seconds_count{instance="a"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q:\n%s", want, out)
		}
	}
}

func TestMergeExpositionsAnnotatesDegradedPeers(t *testing.T) {
	r := NewRegistry()
	r.Counter("ok_total", "h.").With().Inc()
	var b strings.Builder
	r.WritePrometheus(&b)
	out := MergeExpositions([]Exposition{
		{Instance: "local", Text: b.String()},
		{Instance: "http://dead:1", Err: errors.New("connection refused")},
	})
	if !strings.Contains(out, `# federation: instance "http://dead:1" unavailable: connection refused`) {
		t.Errorf("degraded annotation missing:\n%s", out)
	}
	if !strings.Contains(out, `dlvpd_federation_peer_up{instance="http://dead:1"} 0`) {
		t.Errorf("peer_up 0 sample missing:\n%s", out)
	}
	if !strings.Contains(out, `ok_total{instance="local"} 1`) {
		t.Errorf("healthy instance samples missing:\n%s", out)
	}
}

func TestMergeExpositionsEscapesInstanceNames(t *testing.T) {
	out := MergeExpositions([]Exposition{
		{Instance: "we\"ird\\name", Text: "m_total 1\n"},
	})
	// The injected sample and the synthetic peer_up gauge carry the same,
	// singly escaped label.
	label := `{instance="we\"ird\\name"}`
	for _, want := range []string{"m_total" + label + " 1", PeerUpMetric + label + " 1"} {
		if !strings.Contains(out, want) {
			t.Errorf("merged exposition missing %s:\n%s", want, out)
		}
	}
}
