// Command dlvpstat inspects simulation flight-recorder timelines: the
// interval time-series of predictor/pipeline state recorded by the runner
// engine (see internal/timeline) and exported by dlvpsim -timeline or
// GET /v1/runs/{id}/timeline.
//
// Usage:
//
//	dlvpstat show run.json            per-interval table + metric sparklines
//	dlvpstat diff a.json b.json       align two runs interval-by-interval
//	dlvpstat sites profile.json       ranked per-load-site cause breakdown
//	dlvpstat sites diff a.json b.json per-site accuracy regression between runs
//	dlvpstat matrix [-json] view.json distributed sweep: per-shard progress
//	dlvpstat trace -server URL id     distributed trace waterfall across the cluster
//
// show renders one run's phase behaviour: a sparkline per headline metric
// (IPC, VP coverage/accuracy, APT hit rate, probe hit rate, L1D miss rate)
// followed by the per-interval column view. diff compares two runs aligned
// by interval position and flags the interval where run B's value-prediction
// accuracy fell furthest below run A's — the store-conflict regression view.
// sites reads a per-load-site attribution profile (internal/siteprof, from
// dlvpsim -sites or GET /v1/runs/{id}/sites) and ranks static loads by
// misprediction count with a cause-breakdown bar per site; sites diff flags
// the shared site whose accuracy regressed most between two runs. matrix
// renders a distributed sweep's status (a saved GET /v1/matrices/{id}
// payload, stdin, or a live daemon URL): shard progress strip, per-shard
// provenance (assigned vs owning target, steals, restores, cache hits),
// per-target busy time, and the current result tables; -json emits the
// shard provenance machine-readably for scripts.
package main

import (
	"encoding/json"
	"fmt"
	"os"

	"dlvp/internal/tabletext"
	"dlvp/internal/timeline"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	switch os.Args[1] {
	case "show":
		if len(os.Args) != 3 {
			usage()
			os.Exit(2)
		}
		tl, err := loadTimeline(os.Args[2])
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Print(renderShow(tl))
	case "diff":
		if len(os.Args) != 4 {
			usage()
			os.Exit(2)
		}
		a, err := loadTimeline(os.Args[2])
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		b, err := loadTimeline(os.Args[3])
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Print(renderDiff(a, b))
	case "matrix":
		args := os.Args[2:]
		asJSON := false
		if len(args) > 0 && args[0] == "-json" {
			asJSON = true
			args = args[1:]
		}
		if len(args) != 1 {
			usage()
			os.Exit(2)
		}
		v, err := loadMatrixView(args[0])
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if asJSON {
			out, err := renderMatrixJSON(v)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Print(out)
		} else {
			fmt.Print(renderMatrix(v))
		}
	case "trace":
		args := os.Args[2:]
		server := ""
		if len(args) >= 2 && args[0] == "-server" {
			server = args[1]
			args = args[2:]
		}
		if len(args) != 1 {
			usage()
			os.Exit(2)
		}
		doc, err := loadTraceDoc(args[0], server)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Print(renderTrace(doc))
	case "sites":
		switch {
		case len(os.Args) == 3:
			p, err := loadSiteProfile(os.Args[2])
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Print(renderSites(p))
		case len(os.Args) == 5 && os.Args[2] == "diff":
			a, err := loadSiteProfile(os.Args[3])
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			b, err := loadSiteProfile(os.Args[4])
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Print(renderSitesDiff(a, b))
		default:
			usage()
			os.Exit(2)
		}
	default:
		usage()
		os.Exit(2)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: dlvpstat show <timeline.json>
       dlvpstat diff <a.json> <b.json>
       dlvpstat sites <profile.json>
       dlvpstat sites diff <a.json> <b.json>
       dlvpstat matrix [-json] <view.json | matrix URL>
       dlvpstat trace [-server URL] <trace ID | trace.json | trace URL>`)
}

// loadTimeline reads a timeline JSON file ("-" for stdin).
func loadTimeline(path string) (*timeline.Timeline, error) {
	return loadJSON[timeline.Timeline](path, "timeline")
}

// loadJSON decodes one JSON document of type T from path ("-" for stdin);
// what names the document in decode errors.
func loadJSON[T any](path, what string) (*T, error) {
	f := os.Stdin
	if path != "-" {
		var err error
		f, err = os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
	}
	var v T
	if err := json.NewDecoder(f).Decode(&v); err != nil {
		return nil, fmt.Errorf("%s: decode %s: %w", path, what, err)
	}
	return &v, nil
}

// sparkMetrics are the headline series rendered as sparklines by show.
var sparkMetrics = []struct {
	name  string
	value func(timeline.Sample) float64
}{
	{"IPC", timeline.Sample.IPC},
	{"VP coverage %", timeline.Sample.Coverage},
	{"VP accuracy %", timeline.Sample.Accuracy},
	{"APT hit %", timeline.Sample.APTHitRate},
	{"probe hit %", timeline.Sample.ProbeHitRate},
	{"L1D miss %", timeline.Sample.L1DMissRate},
}

// renderShow renders one timeline: header, metric sparklines, and the
// per-interval column view.
func renderShow(tl *timeline.Timeline) string {
	out := fmt.Sprintf("timeline  %s (%s), %d samples, interval %d instrs",
		tl.Workload, tl.Scheme, len(tl.Samples), tl.IntervalInstrs)
	if tl.Merges > 0 {
		out += fmt.Sprintf(", downsampled x%d", 1<<tl.Merges)
	}
	if tl.Partial {
		out += ", partial"
	}
	out += "\n"
	if len(tl.Samples) == 0 {
		return out + "no samples recorded\n"
	}

	nameW := 0
	for _, m := range sparkMetrics {
		if len(m.name) > nameW {
			nameW = len(m.name)
		}
	}
	for _, m := range sparkMetrics {
		vals := make([]float64, len(tl.Samples))
		for i, s := range tl.Samples {
			vals[i] = m.value(s)
		}
		out += fmt.Sprintf("%-*s  %s  (last %.2f)\n", nameW, m.name, tabletext.Spark(vals), vals[len(vals)-1])
	}

	t := &tabletext.Table{
		Header: []string{"interval", "instrs", "IPC", "cov%", "acc%", "apt%", "conflict%",
			"alias%", "paq-peak", "drop%", "lscd+", "probe%", "l1d-miss%"},
	}
	for _, s := range tl.Samples {
		t.AddRow(
			fmt.Sprintf("%d", s.Index),
			fmt.Sprintf("%d-%d", s.StartInstr, s.EndInstr),
			fmt.Sprintf("%.3f", s.IPC()),
			s.Coverage(), s.Accuracy(), s.APTHitRate(), s.APTConflictRate(), s.APTAliasRate(),
			s.PAQPeak, s.PAQDropRate(),
			fmt.Sprintf("%d", s.Delta.LSCDInserts),
			s.ProbeHitRate(), s.L1DMissRate(),
		)
	}
	return out + "\n" + t.String()
}

// renderDiff renders the interval-by-interval comparison of two runs and
// flags the interval of run B's largest accuracy regression versus run A.
func renderDiff(a, b *timeline.Timeline) string {
	out := fmt.Sprintf("diff  A: %s (%s), %d samples  vs  B: %s (%s), %d samples\n",
		a.Workload, a.Scheme, len(a.Samples), b.Workload, b.Scheme, len(b.Samples))
	rows := timeline.Diff(a, b)
	if len(rows) == 0 {
		return out + "no aligned intervals\n"
	}
	if len(a.Samples) != len(b.Samples) {
		out += fmt.Sprintf("note: sample counts differ; comparing the first %d aligned intervals\n", len(rows))
	}

	accDelta := make([]float64, len(rows))
	ipcDelta := make([]float64, len(rows))
	for i, row := range rows {
		accDelta[i] = row.AccuracyDelta
		ipcDelta[i] = row.IPCDelta
	}
	out += fmt.Sprintf("accuracy B-A  %s\n", tabletext.Spark(accDelta))
	out += fmt.Sprintf("IPC      B-A  %s\n", tabletext.Spark(ipcDelta))

	t := &tabletext.Table{
		Header: []string{"interval", "instrs", "IPC A", "IPC B", "dIPC", "acc% A", "acc% B", "dacc", ""},
	}
	worst, regressed := timeline.LargestAccuracyRegression(a, b)
	for _, row := range rows {
		mark := ""
		if regressed && row.Index == worst.Index {
			mark = "<-- largest accuracy regression"
		}
		t.AddRow(
			fmt.Sprintf("%d", row.Index),
			fmt.Sprintf("%d-%d", row.StartInstr, row.EndInstr),
			fmt.Sprintf("%.3f", row.IPCA), fmt.Sprintf("%.3f", row.IPCB),
			fmt.Sprintf("%+.3f", row.IPCDelta),
			row.AccuracyA, row.AccuracyB,
			fmt.Sprintf("%+.2f", row.AccuracyDelta),
			mark,
		)
	}
	out += "\n" + t.String()
	if regressed {
		out += fmt.Sprintf("largest accuracy regression: interval %d (instrs %d-%d), %.2f%% -> %.2f%% (%+.2f pts)\n",
			worst.Index, worst.StartInstr, worst.EndInstr, worst.AccuracyA, worst.AccuracyB, worst.AccuracyDelta)
	} else {
		out += "no accuracy regression: run B matches or beats run A in every aligned interval\n"
	}
	return out
}
