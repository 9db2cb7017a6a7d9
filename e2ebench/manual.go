package main

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"slices"
	"sort"
	"time"

	"itag/client"
)

// runManual runs a workload of manual projects (tagging, dashboard,
// cluster): set-up, the open-loop ladder, the output checks and the
// metrics.
func runManual(e env, w workload, tr *tracer) (*result, error) {
	var wrap func(http.RoundTripper) http.RoundTripper
	if tr != nil {
		wrap = tr.sdkTransport
	}
	hc, ct := sdkHTTP(e.Workers, wrap)
	start := func(root string) (*deployment, error) {
		if tr != nil {
			return startInProcess(root, w.Cluster, tr)
		}
		return startExec(e.Itagd, root, w.Cluster)
	}
	prov := func(dep *deployment) (*world, error) {
		return provision(clientsFor(dep, hc), w.Shape, e.Seed, e.Workers)
	}
	dep, wd, setupS, err := deploy(e, w, start, prov)
	if err != nil {
		return nil, err
	}
	defer func() {
		dep.close()
		os.RemoveAll(e.runDir(w.Name))
	}()

	rn := &runner{w: wd}
	if w.Cluster {
		cc := client.NewCluster(dep.APIs, hc)
		if err := cc.Refresh(context.Background()); err != nil {
			return nil, fmt.Errorf("fetch ring: %w", err)
		}
		rn.write, rn.read = cc, cc.WithFollowerReads()
	} else {
		c := client.New(dep.APIs[0], hc)
		rn.write, rn.read, rn.single = c, c, c
	}

	ladder := w.ladderFor(e.Seconds)
	sched, stepOf := poisson(newRand(e.Seed, 2), ladder)
	ops := planOps(e.Seed, len(sched), wd, w.Shape, w.Mix)

	// Warm up at the nominal rate: the first seconds after set-up carry
	// one-off stalls that no rung should be charged with.
	wsteps := []step{{Rate: w.Nominal, Dur: warmup}}
	ws, wstep := poisson(newRand(e.Seed, 5), wsteps)
	warm := rn.openLoop(ws, wstep, planOps(e.Seed+2, len(ws), wd, w.Shape, w.Mix), wsteps, e.Workers)

	metricsHC := &http.Client{Timeout: 5 * time.Second}
	before, err := scrapeAll(metricsHC, dep)
	if err != nil {
		return nil, err
	}
	attempts0, calls0 := ct.attempts.Load(), rn.calls.Load()
	if tr != nil {
		tr.reset()
	}
	// The deployment's CPU and the host's steal are read before every pass
	// and after the last.
	var samples []usage
	lr := rn.runPasses(sched, stepOf, ops, ladder, e.Workers, func() { samples = append(samples, dep.sample()) })
	after, err := scrapeAll(metricsHC, dep)
	if err != nil {
		return nil, err
	}
	attempts, calls := ct.attempts.Load()-attempts0, rn.calls.Load()-calls0
	stampedOK, stampedDegraded := ct.ok.Load(), ct.degraded.Load()

	res := &result{Workload: w.Name, Traced: tr != nil}
	res.Rungs = mergePasses(ladder, lr.rungs(e.Workers, w.LimitMs))
	res.Sustained = sustained(res.Rungs, w.LimitMs)
	res.Attempted = len(ops) + len(warm.Ops)
	res.Wrong = lr.count(outWrong) + warm.count(outWrong)
	res.Failed = lr.count(outFailed) + warm.count(outFailed) + res.Wrong

	// The p50s are those of the least-disturbed nominal window, the one with
	// the lowest p50 (see mergePasses); the p99s pool the windows' samples.
	// The CPU per op is the median over the whole passes: it rises from pass
	// to pass as the data grows, so the lowest would be the first pass's.
	var nominalSteps []int
	for i, st := range ladder {
		if st.Rung == 0 {
			nominalSteps = append(nominalSteps, i)
		}
	}
	isRound := func(k opKind) bool { return k == opRound }
	var roundP50s, readP50s, roundsAll, readsAll, cpuPerOp, steals []float64
	okPerPass := make([]int, len(nominalSteps))
	for i, o := range lr.Out {
		if o == outOK {
			okPerPass[sort.SearchInts(nominalSteps, lr.Step[i]+1)-1]++
		}
	}
	for p, si := range nominalSteps {
		r, rd := lr.latencies(si, isRound), lr.latencies(si, opKind.isRead)
		roundsAll, readsAll = append(roundsAll, r...), append(readsAll, rd...)
		if len(r) > 0 {
			roundP50s = append(roundP50s, summarize(r).P50)
		}
		if len(rd) > 0 {
			readP50s = append(readP50s, summarize(rd).P50)
		}
		a, b := samples[p], samples[p+1]
		cpuPerOp = append(cpuPerOp, ms(b.cpu-a.cpu)/float64(max(okPerPass[p], 1)))
		steals = append(steals, 100*float64(b.steal-a.steal)/float64(max(b.ticks-a.ticks, 1)))
	}
	rounds, reads := summarize(roundsAll), summarize(readsAll)
	nominal := fmt.Sprintf("lowest of the %d nominal windows' p50s at %.0f ops/s, succeeded ops", len(nominalSteps), w.Nominal)

	var spans []span
	if tr != nil {
		spans = tr.take()
	}
	checks := checkManual(rn, wd, w.Cluster)
	for _, c := range checks {
		res.Attempted += c.Total
		res.Failed += c.Total - c.Passed
		res.Wrong += c.Total - c.Passed
	}
	res.Checks = checks

	e2e := &res.E2E
	res.add(e2e, "setup_s", "s", setupS, fmt.Sprintf("median of %d deployments from exec to provisioned world", setupRepeats))
	res.add(e2e, "round_p50_ms", "ms", lowest(roundP50s), fmt.Sprintf("%s %s; pooled: %s", nominal, fmtList(roundP50s), rounds))
	res.add(e2e, "round_p99_ms", "ms", rounds.P99, "pooled over the nominal windows")
	res.add(e2e, "read_p50_ms", "ms", lowest(readP50s), fmt.Sprintf("%s %s; pooled: %s", nominal, fmtList(readP50s), reads))
	res.add(e2e, "read_p99_ms", "ms", reads.P99, "pooled over the nominal windows")
	res.add(e2e, "sustained_rps", "ops/s", sustainedRate(res.Rungs, res.Sustained, w.LimitMs),
		fmt.Sprintf("offered rate where the tail latency reaches %.0f ms, each rung judged by its least-disturbed pass, interpolated above the highest passing rung", w.LimitMs))
	if !dep.inProcess() {
		res.add(e2e, "cpu_ms_per_op", "ms", median(cpuPerOp), fmt.Sprintf("user+system CPU of every itagd per completed op, median of the passes %s", fmtList(cpuPerOp)))
		res.add(e2e, "peak_rss_mb", "MiB", dep.peakRSS(), "max VmHWM over the itagd processes")
	}
	res.add(e2e, "disk_mb", "MiB", dep.diskMiB(), "data directories at the end of the run")
	res.add(e2e, "failed_ratio", "ratio", float64(res.Failed)/float64(max(res.Attempted, 1)), "(failed + refused + wrong-result ops) / attempted, checks included")
	if w.Cluster {
		res.add(e2e, "quorum_ok_ratio", "ratio", float64(stampedOK)/float64(max(stampedOK+stampedDegraded, 1)), "acked writes stamped X-Itag-Quorum: ok")
	}

	// Counts from itagd's own /metrics, deltas over the ladder.
	d := delta(before, after)
	lags := make([]float64, len(lr.Lag))
	for i, l := range lr.Lag {
		lags[i] = ms(l)
	}
	lag := summarize(lags)
	cnt := &res.Counts
	res.add(cnt, "client.gen_lag_p99_ms", "ms", lag.P99, fmt.Sprintf("generator lateness against its schedule (%s)", lag))
	res.add(cnt, "client.attempts_per_call", "count", float64(attempts)/float64(max(calls, 1)), "HTTP attempts per SDK call over the ladder")
	hits, misses := d.family("itag_respcache_hits_total"), d.family("itag_respcache_misses_total")
	res.add(cnt, "server.respcache_hit_ratio", "ratio", hits/max(hits+misses, 1), "")
	res.add(cnt, "server.respcache_evictions", "count", d.family("itag_respcache_evictions_total"), "")
	res.add(cnt, "server.responses_4xx", "count", d.family("itag_http_responses_total", `class="4xx"`), "")
	res.add(cnt, "server.responses_5xx", "count", d.family("itag_http_responses_total", `class="5xx"`), "")
	commits, fsyncs := d.family("itag_store_commits_total"), d.family("itag_store_fsyncs_total")
	res.add(cnt, "store.commits_per_fsync", "count", commits/max(fsyncs, 1), "")
	res.add(cnt, "store.wal_bytes_per_commit", "bytes", d.family("itag_store_wal_bytes_total")/max(commits, 1), "")
	res.add(cnt, "store.rotations", "count", d.family("itag_store_wal_rotations_total"), "")
	res.add(cnt, "store.compactions", "count", d.family("itag_store_compactions_total"), "")
	res.add(cnt, "cluster.quorum_degraded", "count", d.family("itag_cluster_quorum_degraded_total"), "")
	res.add(cnt, "cluster.not_owner", "count", d.family("itag_cluster_not_owner_total"), "")
	fr, frFall := d.family("itag_cluster_follower_reads_total"), d.family("itag_cluster_follower_read_fallbacks_total")
	res.add(cnt, "cluster.follower_read_fallback_ratio", "ratio", frFall/max(fr+frFall, 1), "")
	lagMax := 0.0
	for _, s := range after {
		lagMax = max(lagMax, s.max("itag_cluster_replica_lag"))
	}
	res.add(cnt, "cluster.replica_lag_max", "records", lagMax, "at the end of the ladder")

	res.Notes = append(res.Notes, fmt.Sprintf("host CPU steal in each pass, %%: %s (timings of passes with more steal are slower)", fmtList(steals)))
	lagBound := genLagBoundMs
	if tr != nil {
		lagBound = tracedGenLagBoundMs
	}
	if lag.P99 > lagBound {
		res.Notes = append(res.Notes, fmt.Sprintf("INVALID: generator lag p99 %.2f ms exceeds the %.0f ms bound", lag.P99, lagBound))
	}
	if tr != nil {
		roundsOK := 0
		for i, o := range lr.Ops {
			if o.Kind == opRound && lr.Out[i] == outOK {
				roundsOK++
			}
		}
		tr.layers(res, spans, roundsOK, rn.exportRows.Load())
		if path := tr.dump(e.Work, w.Name, spans); path != "" {
			res.Notes = append(res.Notes, "spans written to "+path)
		}
	}
	return res, nil
}

// lowest is the smallest of xs, 0 when there are none (a workload without
// reads, or a window whose ops all failed).
func lowest(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return slices.Min(xs)
}

// genLagBoundMs is the validity bound on the generator's p99 lateness. A
// traced run hosts the servers in this process, so on saturated rungs the
// dispatcher waits for Go's 10 ms preemption like every other goroutine;
// its bound is a quarter of the ladder's 200 ms tail limit instead. The
// traced run gives the per-layer metrics; the end-to-end ones come from
// untraced runs.
const (
	genLagBoundMs       = 20.0
	tracedGenLagBoundMs = 50.0
)

func scrapeAll(hc *http.Client, dep *deployment) ([]scrape, error) {
	out := make([]scrape, len(dep.Debugs))
	for i, d := range dep.Debugs {
		s, err := fetchMetrics(hc, d)
		if err != nil {
			return nil, err
		}
		out[i] = s
	}
	return out, nil
}

func (dep *deployment) inProcess() bool { return dep.daemons == nil }

func (dep *deployment) cpu() time.Duration {
	var t time.Duration
	for _, d := range dep.daemons {
		c, _ := d.cpuTime()
		t += c
	}
	return t
}

// usage is the deployment's CPU and the host's CPU ticks at one moment.
type usage struct {
	cpu          time.Duration
	steal, ticks uint64
}

func (dep *deployment) sample() usage {
	steal, ticks := hostTicks()
	return usage{cpu: dep.cpu(), steal: steal, ticks: ticks}
}

func (dep *deployment) peakRSS() float64 {
	m := 0.0
	for _, d := range dep.daemons {
		r, _ := d.peakRSS()
		m = max(m, r)
	}
	return m
}

func (dep *deployment) diskMiB() float64 {
	t := 0.0
	for _, d := range dep.Dirs {
		t += dirMiB(d)
	}
	return t
}

// checkManual verifies the outputs after the load: every acknowledged
// submit is in its project's export (per resource, read from the project's
// leader), and in a quorum cluster every write stamped X-Itag-Quorum: ok is
// among them.
func checkManual(rn *runner, wd *world, cluster bool) []check {
	visible := check{Name: "acked submits visible in export"}
	quorum := check{Name: "quorum-ok writes readable from the slot leader"}
	for _, p := range wd.Projects {
		visible.Total++
		posts, err := exportPosts(rn.write, p.ID)
		if err != nil {
			visible.Detail = err.Error()
			continue
		}
		okAll, okQuorum := true, true
		for k := range p.Res {
			acked, got := p.acked[k].Load(), int64(posts[p.Res[k]])
			// A submit that failed in transport may still have landed.
			if got < acked || (p.unknown.Load() == 0 && got != acked) {
				okAll = false
			}
			if got < p.ackedOK[k].Load() {
				okQuorum = false
			}
		}
		if okAll {
			visible.Passed++
		} else if visible.Detail == "" {
			visible.Detail = fmt.Sprintf("project %s: export post counts differ from acked submits", p.ID)
		}
		if cluster {
			quorum.Total++
			if okQuorum {
				quorum.Passed++
			}
		}
	}
	if cluster {
		return []check{visible, quorum}
	}
	return []check{visible}
}

// exportPosts pages through a project's whole export and returns the post
// count per resource ID.
func exportPosts(c api, id string) (map[string]int, error) {
	out := map[string]int{}
	cursor := ""
	for {
		ctx, cancel := opCtx()
		page, err := c.Export(ctx, id, cursor, 100)
		cancel()
		if err != nil {
			return nil, fmt.Errorf("export %s: %w", id, err)
		}
		for _, it := range page.Items {
			out[it.ID] = it.Posts
		}
		if page.NextCursor == "" {
			return out, nil
		}
		cursor = page.NextCursor
	}
}
