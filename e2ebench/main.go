// Command e2ebench is iTag's end-to-end benchmark. It execs cmd/itagd on
// loopback TCP with its default flags (plus a fresh -db and -debug-addr),
// provisions a world through the client SDK, drives it open-loop from a
// seeded schedule, checks the outputs, and prints every metric with its
// unit. With -trace 1 it hosts the same packages in-process instead and
// splits each operation across the layers it crosses.
//
//	bash e2ebench/run.sh --workload tagging --seed 1 --seconds 38 --trace 0
//
// The last line of standard output is a JSON object with the keys
// correct, attempted, failed and metrics. See e2ebench/README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// endToEnd and perLayer are the metrics of the JSON line, in the order of
// BENCHMARK.json: every workload reports every one of them.
var endToEnd = []string{
	"setup_s", "round_p50_ms", "read_p50_ms",
	"sustained_rps", "cpu_ms_per_op", "peak_rss_mb", "disk_mb",
}

var perLayer = []string{
	"client.gen_lag_p99_ms", "client.attempts_per_call", "client.outside_handler_p50_ms",
	"server.handler_p50_ms.request_task", "server.handler_p99_ms.request_task", "server.self_ms.request_task",
	"server.handler_p50_ms.submit_task", "server.handler_p99_ms.submit_task", "server.self_ms.submit_task",
	"server.handler_p50_ms.get_project", "server.handler_p99_ms.get_project", "server.self_ms.get_project",
	"server.handler_p50_ms.get_resource", "server.handler_p99_ms.get_resource", "server.self_ms.get_resource",
	"server.handler_p50_ms.export", "server.handler_p99_ms.export", "server.self_ms.export",
	"server.respcache_hit_ratio", "server.respcache_evictions", "server.responses_4xx", "server.responses_5xx",
	"core.step_p50_ms", "core.step_self_ms", "strategy.choose_p50_ms", "strategy.choose_share",
	"crowd.step_ms_per_batch", "crowd.idle_steps_per_batch",
	"store.put_p50_ms", "store.put_p99_ms", "store.puts_per_op", "store.get_p50_ms", "store.scan_p50_ms",
	"store.keys_visited_per_row", "store.commits_per_fsync", "store.wal_bytes_per_commit",
	"store.rotations", "store.compactions",
	"cluster.push_rtt_p50_ms", "cluster.push_rtt_p99_ms", "cluster.pull_rtt_p50_ms",
	"cluster.quorum_degraded", "cluster.not_owner", "cluster.follower_read_fallback_ratio", "cluster.replica_lag_max",
}

func main() {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	name := fs.String("workload", "tagging", "tagging | dashboard | cluster | simulation | all")
	seed := fs.Int64("seed", 1, "seed of every generated input")
	seconds := fs.Int("seconds", 38, "length of the measured phase")
	trace := fs.Int("trace", 0, "1 = traced in-process run reporting the per-layer metrics")
	itagd := fs.String("itagd", "", "path of the itagd binary to exec")
	work := fs.String("work", ".bench_build/run", "directory for data directories and span dumps")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	if *itagd == "" && *trace == 0 {
		fmt.Fprintln(os.Stderr, "e2ebench: -itagd is required (run it through e2ebench/run.sh)")
		os.Exit(2)
	}
	if err := os.MkdirAll(*work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	e := env{Itagd: *itagd, Work: *work, Seed: *seed, Seconds: *seconds, Workers: runtime.NumCPU(), Trace: *trace == 1}
	names := []string{*name}
	if *name == "all" {
		names = []string{"tagging", "dashboard", "simulation", "cluster"}
	}
	code := 0
	for _, n := range names {
		res, err := run(e, n)
		if err != nil {
			fmt.Fprintf(os.Stderr, "e2ebench: %s: %v\n", n, err)
			os.Exit(1)
		}
		report(os.Stdout, res, e)
		if !e.Trace {
			saveLast(e.Work, res)
		}
		line, valid := jsonLine(res, e.Trace)
		if !valid {
			code = 1
			continue
		}
		fmt.Println(line)
	}
	os.Exit(code)
}

func run(e env, name string) (*result, error) {
	var tr *tracer
	if e.Trace {
		tr = newTracer()
	}
	if name == simulation.Name {
		return runSimulation(e, tr)
	}
	w, ok := findWorkload(name)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	return runManual(e, w, tr)
}

// jsonLine renders the result line. valid is false when the run broke a
// validity bound, in which case no result may be printed.
func jsonLine(res *result, traced bool) (string, bool) {
	for _, n := range res.Notes {
		if strings.HasPrefix(n, "INVALID") {
			return "", false
		}
	}
	names := endToEnd
	if traced {
		names = perLayer
	}
	if res.Workload == simulation.Name {
		// Not a BENCHMARK.json workload: report what it measures.
		names = nil
		for _, m := range append(append([]metric{}, res.E2E...), res.Layers...) {
			names = append(names, m.Name)
		}
	}
	all := map[string]metric{}
	for _, list := range [][]metric{res.E2E, res.Counts, res.Layers} {
		for _, m := range list {
			all[m.Name] = m
		}
	}
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := map[string]val{}
	for _, n := range names {
		m, ok := all[n]
		if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			m.Value = 0 // the layer is not exercised by this workload
		}
		out[n] = val{m.Value, unitOf(n)}
	}
	b, _ := json.Marshal(struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{res.Wrong == 0, max(res.Attempted, 1), res.Failed, out})
	return string(b), true
}

// unitOf is a metric's declared unit, the one BENCHMARK.json states.
func unitOf(name string) string {
	switch {
	case strings.HasSuffix(name, "_ms") || strings.Contains(name, "_ms.") || strings.Contains(name, "_ms_per_"):
		return "ms"
	case strings.HasSuffix(name, "_s"):
		return "s"
	case strings.HasSuffix(name, "_mb"):
		return "MiB"
	case strings.HasSuffix(name, "_rps"):
		return "ops/s"
	case name == "sim_tasks_per_s":
		return "tasks/s"
	case strings.HasSuffix(name, "_ratio") || strings.HasSuffix(name, "_share") || name == "mean_stability":
		return "ratio"
	case name == "store.wal_bytes_per_commit":
		return "bytes"
	case name == "cluster.replica_lag_max":
		return "records"
	}
	return "count"
}

func report(w io.Writer, res *result, e env) {
	mode := "untraced: itagd exec'd on loopback TCP"
	if res.Traced {
		mode = "traced: same packages hosted in-process, spans at every layer boundary"
	}
	fmt.Fprintf(w, "== %s  seed %d  %ds  %d workers (%s)\n", res.Workload, e.Seed, e.Seconds, e.Workers, mode)
	if len(res.Rungs) > 0 {
		fmt.Fprintf(w, "%-9s %6s %6s %6s %8s %10s %16s %8s  %s\n", "rung", "sent", "ok", "failed", "ops/s", "p50 ms", "tail ms", "backlog", "tail ms of each pass")
		for i, r := range res.Rungs {
			mark := ""
			if i == res.Sustained {
				mark = "  <- sustained"
			}
			tail := fmt.Sprintf("max %.3f", r.tail())
			if r.Lat.TailQ > 0 {
				tail = fmt.Sprintf("p%g %.3f", r.Lat.TailQ*100, r.tail())
			}
			fmt.Fprintf(w, "%-9.0f %6d %6d %6d %8.1f %10.3f %16s %8v  %s%s\n", r.Rate, r.Sent, r.OK, r.Failed, r.Achieved, r.Lat.P50, tail, r.Backlog, fmtList(r.Tails), mark)
		}
	}
	fmt.Fprintln(w, "end-to-end:")
	last := loadLast(e.Work, res.Workload)
	for _, m := range res.E2E {
		extra := m.Note
		if res.Traced {
			if u, ok := last[m.Name]; ok && u != 0 {
				extra = fmt.Sprintf("untraced %.4f, tracing overhead %+.1f%%; %s", u, 100*(m.Value-u)/u, m.Note)
			}
		}
		fmt.Fprintf(w, "  %-28s %12.4f %-7s %s\n", m.Name, m.Value, m.Unit, extra)
	}
	if res.Traced && last == nil {
		fmt.Fprintln(w, "  (no untraced run of this workload in the work directory to compare against)")
	}
	if len(res.Counts)+len(res.Layers) > 0 {
		fmt.Fprintln(w, "per-layer:")
		for _, list := range [][]metric{res.Counts, res.Layers} {
			for _, m := range list {
				fmt.Fprintf(w, "  %-40s %12.4f %-7s %s\n", m.Name, m.Value, m.Unit, m.Note)
			}
		}
	}
	fmt.Fprintln(w, "output checks:")
	for _, c := range res.Checks {
		status := "ok"
		if c.Passed != c.Total {
			status = "WRONG: " + c.Detail
		}
		fmt.Fprintf(w, "  %-52s %d/%d %s\n", c.Name, c.Passed, c.Total, status)
	}
	fmt.Fprintf(w, "attempted %d, failed %d (wrong results %d)\n", res.Attempted, res.Failed, res.Wrong)
	for _, n := range res.Notes {
		fmt.Fprintln(w, "note:", n)
	}
}

// saveLast and loadLast keep the latest untraced end-to-end numbers of a
// workload in the work directory, so a traced run can show its overhead.
func saveLast(work string, res *result) {
	m := map[string]float64{}
	for _, x := range res.E2E {
		m[x.Name] = x.Value
	}
	b, _ := json.Marshal(m)
	_ = os.WriteFile(filepath.Join(work, "last-"+res.Workload+".json"), b, 0o644)
}

func loadLast(work, name string) map[string]float64 {
	b, err := os.ReadFile(filepath.Join(work, "last-"+name+".json"))
	if err != nil {
		return nil
	}
	var m map[string]float64
	if json.Unmarshal(b, &m) != nil {
		return nil
	}
	return m
}
