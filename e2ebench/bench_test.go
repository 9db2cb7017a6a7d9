package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"itag/client"
)

func TestScheduleIsFixedBySeed(t *testing.T) {
	ladder := []step{{Rate: 200, Dur: time.Second, Gap: time.Second / 2}, {Rate: 800, Dur: 2 * time.Second}}
	a, sa := poisson(newRand(7, 2), ladder)
	b, sb := poisson(newRand(7, 2), ladder)
	if !reflect.DeepEqual(a, b) || !reflect.DeepEqual(sa, sb) {
		t.Fatal("same seed gave different schedules")
	}
	c, _ := poisson(newRand(8, 2), ladder)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same schedule")
	}
	// Arrivals are ordered, stay inside their rung (none in the gap after
	// the first), and come at the offered rate.
	counts := make([]int, len(ladder))
	for i := range a {
		if i > 0 && a[i] < a[i-1] {
			t.Fatalf("arrival %d before arrival %d", i, i-1)
		}
		if a[i] >= time.Second && a[i] < 1500*time.Millisecond || sa[i] == 1 && a[i] < 1500*time.Millisecond {
			t.Fatalf("arrival %d at %s, in the first rung's gap", i, a[i])
		}
		counts[sa[i]]++
	}
	if a[len(a)-1] >= 3500*time.Millisecond {
		t.Fatalf("last arrival %s beyond the ladder", a[len(a)-1])
	}
	for i, st := range ladder {
		want := st.Rate * st.Dur.Seconds()
		if got := float64(counts[i]); math.Abs(got-want) > 4*math.Sqrt(want) {
			t.Errorf("rung %d: %v arrivals, want about %v", i, got, want)
		}
	}
}

func TestPlannedOpsAreFixedBySeed(t *testing.T) {
	w := &world{Vocab: []string{"a", "b", "c", "d", "e", "f"}}
	for i := 0; i < 5; i++ {
		w.Projects = append(w.Projects, &project{Res: []string{"r1", "r2", "r3"}, Taggers: []string{"t1", "t2"}})
	}
	sh := shape{ProjectSkew: 1.1, ResourceSkew: 1, TagSkew: 1}
	m := mix{GetProject: 0.2, GetResource: 0.3, Export: 0.1}
	a, b := planOps(3, 500, w, sh, m), planOps(3, 500, w, sh, m)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different ops")
	}
	rounds := 0
	for _, o := range a {
		if o.Kind == opRound {
			rounds++
			if n := len(o.Tags); n < 2 || n > 4 {
				t.Fatalf("round with %d tags, want 2..4", n)
			}
		}
	}
	if rounds < 150 || rounds > 250 {
		t.Fatalf("%d rounds of 500, want about 40%%", rounds)
	}
}

func TestPopularitySpreadsOverNodes(t *testing.T) {
	w := &world{}
	for i := 0; i < 12; i++ {
		w.Projects = append(w.Projects, &project{Node: i / 4})
	}
	order := popularityOrder(newRand(5, 3), w)
	seen := map[int]bool{}
	for k, p := range order {
		if seen[p] {
			t.Fatalf("project %d ranked twice", p)
		}
		seen[p] = true
		if got := w.Projects[p].Node; got != k%3 {
			t.Fatalf("rank %d on node %d, want %d", k, got, k%3)
		}
	}
	if len(seen) != 12 {
		t.Fatalf("%d projects ranked, want 12", len(seen))
	}
}

// prob is the probability of rank k.
func (z *zipf) prob(k int) float64 {
	if k == 0 {
		return z.cdf[0]
	}
	return z.cdf[k] - z.cdf[k-1]
}

func TestZipfSkew(t *testing.T) {
	const n, s, draws = 100, 1.1, 200000
	z := newZipf(n, s)
	if got, want := z.prob(0)/z.prob(1), math.Pow(2, s); math.Abs(got-want) > 1e-9 {
		t.Fatalf("P(0)/P(1) = %v, want %v", got, want)
	}
	r := newRand(1, 0)
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[z.draw(r)]++
	}
	for _, k := range []int{0, 1, 9, 49} {
		want := z.prob(k) * draws
		if got := float64(counts[k]); math.Abs(got-want) > 5*math.Sqrt(want) {
			t.Errorf("rank %d drawn %v times, want about %v", k, got, want)
		}
	}
	// The hot head dominates: the top 10% of ranks take over half the draws.
	head := 0
	for _, c := range counts[:n/10] {
		head += c
	}
	if head < draws/2 {
		t.Fatalf("top 10 ranks drew %d of %d", head, draws)
	}
	if u := newZipf(4, 0); math.Abs(u.prob(3)-0.25) > 1e-12 {
		t.Fatalf("s=0 is not uniform: %v", u.prob(3))
	}
}

func TestTailRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{10000, 0.999}, {9999, 0.99}, {1000, 0.99}, {999, 0.95}, {200, 0.95}, {100, 0.9}, {20, 0.5}, {19, 0}} {
		if got, _ := tailRule(c.n); got != c.want {
			t.Errorf("tailRule(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	ms := make([]float64, 1000)
	for i := range ms {
		ms[i] = float64(i + 1)
	}
	d := summarize(ms)
	if d.N != 1000 || d.P50 != 500 || d.P99 != 990 || d.TailQ != 0.99 || d.Tail != 990 {
		t.Fatalf("summarize = %+v", d)
	}
	if s := summarize(ms[:500]).String(); !strings.Contains(s, "n=500") || !strings.Contains(s, "p95") {
		t.Fatalf("a short sample must state its count and supported tail: %q", s)
	}
}

func TestSustainedLadderRule(t *testing.T) {
	r := func(p99 float64, backlog bool, failed int) rung {
		return rung{Sent: 100, OK: 100 - failed, Failed: failed, Lat: dist{TailQ: 0.9, Tail: p99}, Backlog: backlog}
	}
	for _, c := range []struct {
		name  string
		rungs []rung
		want  int
	}{
		{"all pass", []rung{r(5, false, 0), r(8, false, 0), r(20, false, 0)}, 2},
		{"tail over limit", []rung{r(5, false, 0), r(8, false, 0), r(60, false, 0)}, 1},
		{"growing backlog", []rung{r(5, false, 0), r(8, false, 0), r(20, true, 0)}, 1},
		{"rising failures", []rung{r(5, false, 1), r(8, false, 1), r(9, false, 3)}, 1},
		{"stall below", []rung{r(5, false, 0), r(60, false, 0), r(20, false, 0), r(70, true, 0)}, 2},
		{"no rung passes", []rung{r(70, false, 0), r(80, true, 0)}, -1},
	} {
		if got := sustained(c.rungs, 50); got != c.want {
			t.Errorf("%s: sustained = %d, want %d", c.name, got, c.want)
		}
	}

	// Between the highest passing rung and the next, the rate is
	// interpolated to where the tail crosses the limit.
	rated := func(rate, tail float64, backlog bool) rung {
		return rung{Rate: rate, Sent: 100, OK: 100, Lat: dist{TailQ: 0.9, Tail: tail}, Backlog: backlog}
	}
	crossing := []rung{rated(100, 20, false), rated(200, 400, false)}
	if got, want := sustainedRate(crossing, sustained(crossing, 200), 200), 100*math.Pow(2, math.Log(10)/math.Log(20)); math.Abs(got-want) > 1e-9 {
		t.Errorf("interpolated rate = %v, want %v", got, want)
	}
	backlogged := []rung{rated(100, 20, false), rated(200, 50, true)}
	if got := sustainedRate(backlogged, sustained(backlogged, 200), 200); got != 100 {
		t.Errorf("rate below a backlogged rung = %v, want 100", got)
	}
	if got := sustainedRate(crossing[:1], 0, 200); got != 100 {
		t.Errorf("top rung passing: rate = %v, want 100", got)
	}
	if got := sustainedRate(crossing, -1, 200); got != 0 {
		t.Errorf("no rung passing: rate = %v, want 0", got)
	}

	// Fast failures count as missing the limit: a rung of 1000 ops whose
	// refusals answer in a millisecond still fails once they pass 1%.
	ladder := []step{{Rate: 1000, Dur: time.Second}, {Rate: 1000, Dur: time.Second}}
	lr := &ladderRun{Ladder: ladder}
	for s := 0; s < 2; s++ {
		for i := 0; i < 1000; i++ {
			at := time.Duration(s)*time.Second + time.Duration(i)*time.Millisecond
			out := outOK
			if s == 1 && i%50 == 0 {
				out = outFailed
			}
			lr.Sched = append(lr.Sched, at)
			lr.Step = append(lr.Step, s)
			lr.Done = append(lr.Done, at+time.Millisecond)
			lr.Out = append(lr.Out, out)
		}
	}
	rungs := lr.rungs(2, 50)
	if rungs[0].tail() != 1 || !math.IsInf(rungs[1].tail(), 1) || rungs[1].Failed != 20 || rungs[1].Lat.TailQ != 0.99 {
		t.Fatalf("rung tails %v and %v with %d failed, want 1 and +Inf (p99) with 20", rungs[0].tail(), rungs[1].tail(), rungs[1].Failed)
	}
	if got := sustained(rungs, 50); got != 0 {
		t.Fatalf("fast failures: sustained = %d, want 0", got)
	}
}

func TestMergePasses(t *testing.T) {
	r := func(tail float64, backlog bool, failed int) rung {
		return rung{Rate: 1, Dur: time.Second, Sent: 100, OK: 100 - failed, Failed: failed,
			Lat: dist{N: 100, P50: tail / 10, TailQ: 0.95, Tail: tail}, Backlog: backlog}
	}
	// Three passes, each a nominal window (rung 0) and one ladder rung.
	var ladder []step
	for p := 0; p < 3; p++ {
		ladder = append(ladder, step{Rate: 50}, step{Rate: 100, Rung: 1})
	}
	perStep := []rung{
		r(6, false, 0), r(300, true, 0), // host noise in the first pass
		r(5, false, 0), r(math.Inf(1), true, 0), // and a stall in the second
		r(7, false, 1), r(40, false, 0),
	}
	m := mergePasses(ladder, perStep)
	if len(m) != 2 {
		t.Fatalf("%d merged rungs, want 2", len(m))
	}
	if m[0].Sent != 300 || m[0].Failed != 1 || m[0].Dur != 3*time.Second || m[0].tail() != 5 || m[0].Lat.P50 != 0.5 {
		t.Errorf("nominal rung: sent %d failed %d dur %s tail %v p50 %v, want 300, 1, 3s and the second pass's 5 and 0.5",
			m[0].Sent, m[0].Failed, m[0].Dur, m[0].tail(), m[0].Lat.P50)
	}
	if m[1].tail() != 40 || m[1].Backlog || !reflect.DeepEqual(m[1].Tails, []float64{300, math.Inf(1), 40}) {
		t.Errorf("ladder rung: tail %v backlog %v tails %v, want the third pass's 40 without backlog, and every pass's tail", m[1].tail(), m[1].Backlog, m[1].Tails)
	}
	if got := sustained(m, 50); got != 1 {
		t.Errorf("two disturbed passes of three: sustained = %d, want 1", got)
	}
	perStep[5].Backlog = true
	if m := mergePasses(ladder, perStep); !m[1].Backlog || sustained(m, 50) != 0 {
		t.Error("the least-disturbed pass's backlog must fail the rung")
	}
}

func TestLadderPasses(t *testing.T) {
	w, _ := findWorkload("dashboard")
	ladder := w.ladderFor(38)
	var total time.Duration
	perRung := map[int]int{}
	for _, st := range ladder {
		total += st.Dur + st.Gap
		perRung[st.Rung]++
	}
	if total+warmup > 38*time.Second || total+warmup < 37*time.Second {
		t.Errorf("warm-up and ladder take %s of a 38 s run", total+warmup)
	}
	if len(perRung) != len(w.Ladder)+1 {
		t.Fatalf("%d rungs, want the nominal one and %d", len(perRung), len(w.Ladder))
	}
	for j, n := range perRung {
		if n != passes {
			t.Errorf("rung %d runs %d times, want %d", j, n, passes)
		}
	}
	if last := ladder[len(ladder)-1]; last.Gap != drain || ladder[0].Rung != 0 || ladder[0].Rate != w.Nominal {
		t.Error("every pass must start at the nominal rate and end with the drain")
	}
}

func TestBacklogCountsOwnPassOnly(t *testing.T) {
	// Two passes of a nominal step and one rung, 1 s each, on the ladder's
	// clock. The first pass's rung leaves 30 ops that complete long after
	// the second pass started (runPasses waited for them in real time).
	ladder := []step{{Rate: 10, Dur: time.Second}, {Rate: 100, Dur: time.Second, Rung: 1},
		{Rate: 10, Dur: time.Second}, {Rate: 100, Dur: time.Second, Rung: 1}}
	lr := &ladderRun{Ladder: ladder}
	add := func(step int, at, took time.Duration) {
		lr.Sched = append(lr.Sched, at)
		lr.Step = append(lr.Step, step)
		lr.Done = append(lr.Done, at+took)
		lr.Out = append(lr.Out, outOK)
	}
	for k := 0; k < 30; k++ {
		add(1, time.Second+time.Duration(k)*10*time.Millisecond, 9*time.Second)
	}
	// The second pass's rung ends with four slow ops outstanding, rising
	// 2 -> 3 -> 4 through its second half but below the 5 ops that arrive
	// at 100 ops/s within a 50 ms limit.
	slow := map[int]bool{45: true, 70: true, 96: true, 99: true}
	for k := 0; k < 100; k++ {
		took := 5 * time.Millisecond
		if slow[k] {
			took = time.Second
		}
		add(3, 3*time.Second+time.Duration(k)*10*time.Millisecond, took)
	}
	if r := lr.rungs(1, 50); r[3].Backlog {
		t.Fatal("the previous pass's late ops counted toward this pass's backlog")
	}
}

func TestBacklog(t *testing.T) {
	ms := func(xs ...int) []time.Duration {
		out := make([]time.Duration, len(xs))
		for i, x := range xs {
			out[i] = time.Duration(x) * time.Millisecond
		}
		return out
	}
	sched := ms(0, 10, 20, 30, 40, 50, 60, 70)
	keepingUp := ms(5, 15, 25, 35, 45, 55, 65, 75)
	fallingBehind := ms(30, 60, 90, 120, 150, 180, 210, -1)
	if n := outstanding(sched, keepingUp, 72*time.Millisecond); n != 1 {
		t.Fatalf("outstanding = %d, want 1", n)
	}
	at := func(done []time.Duration, ms int) int {
		return outstanding(sched, done, time.Duration(ms)*time.Millisecond)
	}
	if backlogGrows(at(keepingUp, 40), at(keepingUp, 60), at(keepingUp, 79), 1, 2) {
		t.Fatal("a server keeping up has no growing backlog")
	}
	if !backlogGrows(at(fallingBehind, 40), at(fallingBehind, 60), at(fallingBehind, 79), 1, 2) {
		t.Fatal("a server falling behind has a growing backlog")
	}
	// A stall in the rung's last quarter is not a growing backlog.
	if backlogGrows(3, 3, 50, 2, 10) || !backlogGrows(10, 25, 40, 2, 10) {
		t.Fatal("backlog must grow through the rung's second half")
	}
	// Growth that the tail-latency limit absorbs is not a backlog.
	if backlogGrows(10, 25, 40, 2, 40) {
		t.Fatal("a backlog within the limit's worth of arrivals must pass")
	}
}

func TestMetricsDelta(t *testing.T) {
	raw, err := os.ReadFile("testdata/cluster-node.prom")
	if err != nil {
		t.Fatal(err)
	}
	before, err := parseExposition(strings.NewReader(string(raw)))
	if err != nil {
		t.Fatal(err)
	}
	if got := before.family("itag_http_responses_total", `class="4xx"`); got != 1 {
		t.Fatalf("4xx responses = %v, want 1", got)
	}
	if got := before.family("itag_cluster_pulls_total"); got != 12 {
		t.Fatalf("pulls = %v, want 12 (6 per followed slot)", got)
	}
	if got := before.family("itag_http_request_duration_seconds_bucket", `route="POST /api/v1/providers"`, `le="+Inf"`); got != 0 && got != 1 {
		t.Fatalf("+Inf bucket = %v", got)
	}
	later := strings.NewReplacer(
		"itag_store_commits_total 1\n", "itag_store_commits_total 41\n",
		"itag_store_fsyncs_total 1\n", "itag_store_fsyncs_total 11\n",
		`itag_cluster_pulls_total{slot="beta"} 6`, `itag_cluster_pulls_total{slot="beta"} 9`,
	).Replace(string(raw))
	after, err := parseExposition(strings.NewReader(later))
	if err != nil {
		t.Fatal(err)
	}
	d := delta([]scrape{before}, []scrape{after})
	if c, f := d.family("itag_store_commits_total"), d.family("itag_store_fsyncs_total"); c != 40 || f != 10 {
		t.Fatalf("commits/fsyncs delta = %v/%v, want 40/10", c, f)
	}
	if got := d.family("itag_cluster_pulls_total"); got != 3 {
		t.Fatalf("pulls delta = %v, want 3", got)
	}
	if got := d.family("itag_http_responses_total"); got != 0 {
		t.Fatalf("unchanged counters must have zero delta, got %v", got)
	}
	if _, err := parseExposition(strings.NewReader("itag_x{a=\"b\"} notanumber\n")); err == nil {
		t.Fatal("malformed sample accepted")
	}
}

// The JSON line names exactly the metrics BENCHMARK.json declares.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not beside this directory")
	}
	type entry struct{ Name, Unit string }
	var spec struct {
		Workloads []entry
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	names := func(xs []entry) []string {
		var out []string
		for _, x := range xs {
			out = append(out, x.Name)
			if x.Unit != "" && x.Unit != unitOf(x.Name) {
				t.Errorf("%s: BENCHMARK.json unit %q, the benchmark prints %q", x.Name, x.Unit, unitOf(x.Name))
			}
		}
		return out
	}
	if got := names(spec.EndToEnd); !reflect.DeepEqual(got, endToEnd) {
		t.Errorf("end_to_end = %v, the benchmark prints %v", got, endToEnd)
	}
	if got := names(spec.PerLayer); !reflect.DeepEqual(got, perLayer) {
		t.Errorf("per_layer = %v, the benchmark prints %v", got, perLayer)
	}
	for _, w := range names(spec.Workloads) {
		if _, ok := findWorkload(w); !ok {
			t.Errorf("BENCHMARK.json workload %q is not defined", w)
		}
	}
}

// slowAPI answers GetProject after a fixed delay; nothing else is called.
type slowAPI struct {
	api
	delay time.Duration
}

func (s slowAPI) GetProject(ctx context.Context, id string) (client.ProjectInfo, error) {
	time.Sleep(s.delay)
	return client.ProjectInfo{Project: client.Project{ID: id}}, nil
}

func TestPassesDoNotInheritBacklog(t *testing.T) {
	// One worker at 10 ms an op serves 100 ops/s; each pass's top rung
	// offers 400 ops/s for 0.2 s, a backlog of about 0.6 s that outlasts
	// the gap before the next pass's nominal window on the ladder's clock.
	var ladder []step
	for p := 0; p < 2; p++ {
		ladder = append(ladder, step{Rate: 40, Dur: 200 * time.Millisecond}, step{Rate: 400, Dur: 200 * time.Millisecond, Gap: 50 * time.Millisecond, Rung: 1})
	}
	sched, stepOf := poisson(newRand(1, 2), ladder)
	ops := make([]op, len(sched))
	for i := range ops {
		ops[i].Kind = opGetProject
	}
	rn := &runner{w: &world{Projects: []*project{{ID: "p"}}}, read: slowAPI{delay: 10 * time.Millisecond}}
	samples := 0
	lr := rn.runPasses(sched, stepOf, ops, ladder, 1, func() { samples++ })
	if samples != 3 {
		t.Errorf("sampled %d times, want before each of 2 passes and after the last", samples)
	}
	all := func(opKind) bool { return true }
	if top := summarize(lr.latencies(1, all)); top.Max < 200 {
		t.Fatalf("top rung's max latency %.1f ms: no backlog to inherit", top.Max)
	}
	if second := summarize(lr.latencies(2, all)); second.N == 0 || second.Max > 250 {
		t.Errorf("second pass's nominal window: %s, want every op well under the first pass's backlog", second)
	}
	for i := range lr.Sched {
		if lr.Out[i] != outOK || lr.Done[i] < lr.Sched[i] {
			t.Fatalf("op %d: outcome %d, done %s before scheduled %s", i, lr.Out[i], lr.Done[i], lr.Sched[i])
		}
	}
}
