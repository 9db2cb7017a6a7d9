package main

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"itag/client"
)

type opKind uint8

const (
	opRound       opKind = iota // RequestTask then SubmitTask
	opGetProject                // provider reads the project row
	opGetResource               // provider reads one resource's detail
	opExport                    // provider reads the first export page
)

func (k opKind) isRead() bool { return k != opRound }

// exportLimit is the page size of export reads.
const exportLimit = 100

// op is one pre-drawn operation; nothing in it depends on server replies.
type op struct {
	Kind   opKind
	Proj   int
	Res    int // resource index for opGetResource
	Tagger int
	Tags   []string
}

// mix is a workload's traffic: shares of each read kind (the rest are
// rounds) and the popularity skews.
type mix struct {
	GetProject, GetResource, Export float64
}

// planOps draws the operation of every arrival from the seed alone.
func planOps(seed int64, n int, w *world, sh shape, m mix) []op {
	r := newRand(seed, 3)
	projZ := newZipf(len(w.Projects), sh.ProjectSkew)
	perm := popularityOrder(r, w)
	resZ := newZipf(len(w.Projects[0].Res), sh.ResourceSkew)
	tagZ := newZipf(len(w.Vocab), sh.TagSkew)
	ops := make([]op, n)
	for i := range ops {
		p := perm[projZ.draw(r)]
		o := op{Proj: p}
		switch u := r.Float64(); {
		case u < m.GetProject:
			o.Kind = opGetProject
		case u < m.GetProject+m.GetResource:
			o.Kind, o.Res = opGetResource, resZ.draw(r)
		case u < m.GetProject+m.GetResource+m.Export:
			o.Kind = opExport
		default:
			o.Kind = opRound
			o.Tagger = r.Intn(len(w.Projects[p].Taggers))
			o.Tags = drawTags(r, tagZ, w.Vocab, 2, 4)
		}
		ops[i] = o
	}
	return ops
}

// popularityOrder maps popularity ranks to projects: a seeded shuffle of
// each node's projects, dealt out across the nodes in turn, so the hot head
// is not simply the first projects created and, in a cluster, every seed
// spreads it evenly over the slots.
func popularityOrder(r *rand.Rand, w *world) []int {
	var byNode [][]int
	for i, p := range w.Projects {
		for len(byNode) <= p.Node {
			byNode = append(byNode, nil)
		}
		byNode[p.Node] = append(byNode[p.Node], i)
	}
	for _, ps := range byNode {
		r.Shuffle(len(ps), func(a, b int) { ps[a], ps[b] = ps[b], ps[a] })
	}
	out := make([]int, 0, len(w.Projects))
	for k := 0; len(out) < len(w.Projects); k++ {
		for _, ps := range byNode {
			if k < len(ps) {
				out = append(out, ps[k])
			}
		}
	}
	return out
}

// api is the slice of the SDK the load uses; *client.Client and
// *client.ClusterClient both provide it.
type api interface {
	RequestTask(ctx context.Context, projectID, taggerID string) (client.Task, error)
	SubmitTask(ctx context.Context, projectID, taskID string, tags []string) error
	GetProject(ctx context.Context, id string) (client.ProjectInfo, error)
	Export(ctx context.Context, id, cursor string, limit int) (client.ExportPage, error)
}

// outcome of one op.
type outcome uint8

const (
	outOK outcome = iota
	outFailed
	outWrong // the server answered, but with a wrong result
)

// quorumOK counts one op's responses stamped X-Itag-Quorum: ok; the SDK
// transport finds it in the request context.
type quorumOK struct{ atomic.Int32 }

type stampKey struct{}

// countingTransport counts HTTP attempts and records quorum stamps; it is
// the SDK's only transport in both the untraced and the traced run.
type countingTransport struct {
	base     http.RoundTripper
	attempts atomic.Int64
	ok       atomic.Int64
	degraded atomic.Int64
}

func (t *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	t.attempts.Add(1)
	resp, err := t.base.RoundTrip(req)
	if err == nil {
		switch resp.Header.Get("X-Itag-Quorum") {
		case "ok":
			t.ok.Add(1)
			if s, _ := req.Context().Value(stampKey{}).(*quorumOK); s != nil {
				s.Add(1)
			}
		case "degraded":
			t.degraded.Add(1)
		}
	}
	return resp, err
}

// sdkHTTP builds the SDK's HTTP client: at most maxConns connections per
// node, all through rt.
func sdkHTTP(maxConns int, wrap func(http.RoundTripper) http.RoundTripper) (*http.Client, *countingTransport) {
	tr := &http.Transport{
		MaxConnsPerHost:     maxConns,
		MaxIdleConnsPerHost: maxConns,
		IdleConnTimeout:     time.Minute,
		DisableCompression:  true,
	}
	var base http.RoundTripper = tr
	if wrap != nil {
		base = wrap(tr)
	}
	ct := &countingTransport{base: base}
	return &http.Client{Transport: ct}, ct
}

// runner executes ops against a deployment.
type runner struct {
	w      *world
	write  api // rounds (leader-routed)
	read   api // reads (follower reads in the cluster workload)
	single *client.Client
	calls  atomic.Int64 // SDK calls made

	exportRows atomic.Int64 // rows returned by export reads
}

func (rn *runner) exec(o *op) outcome {
	ctx, cancel := opCtx()
	defer cancel()
	p := rn.w.Projects[o.Proj]
	switch o.Kind {
	case opRound:
		stamp := &quorumOK{}
		ctx = context.WithValue(ctx, stampKey{}, stamp)
		rn.calls.Add(1)
		task, err := rn.write.RequestTask(ctx, p.ID, p.Taggers[o.Tagger])
		if err != nil {
			return outFailed
		}
		k, ok := p.resIdx[task.ResourceID]
		if !ok || task.ProjectID != p.ID {
			return outWrong
		}
		rn.calls.Add(1)
		before := stamp.Load()
		if err := rn.write.SubmitTask(ctx, p.ID, task.ID, o.Tags); err != nil {
			var ae *client.APIError
			if !errors.As(err, &ae) {
				p.unknown.Add(1) // transport failure: the post may or may not exist
			}
			return outFailed
		}
		p.acked[k].Add(1)
		if stamp.Load() > before {
			p.ackedOK[k].Add(1)
		}
		return outOK
	case opGetProject:
		rn.calls.Add(1)
		info, err := rn.read.GetProject(ctx, p.ID)
		if err != nil {
			return outFailed
		}
		if info.Project.ID != p.ID {
			return outWrong
		}
	case opGetResource:
		rn.calls.Add(1)
		st, err := rn.single.GetResource(ctx, p.ID, p.Res[o.Res])
		if err != nil {
			return outFailed
		}
		if st.ID != p.Res[o.Res] {
			return outWrong
		}
	case opExport:
		rn.calls.Add(1)
		page, err := rn.read.Export(ctx, p.ID, "", exportLimit)
		if err != nil {
			return outFailed
		}
		rn.exportRows.Add(int64(len(page.Items)))
		if len(page.Items) == 0 || len(page.Items) > exportLimit {
			return outWrong
		}
		for _, it := range page.Items {
			if _, ok := p.resIdx[it.ID]; !ok {
				return outWrong
			}
		}
	}
	return outOK
}

// ladderRun is the raw record of one open-loop ladder.
type ladderRun struct {
	Sched  []time.Duration // scheduled send, offset from ladder start
	Step   []int
	Done   []time.Duration // completion offset
	Out    []outcome
	Lag    []time.Duration // how late the generator dispatched each op
	Ops    []op
	Ladder []step
}

// openLoop sends ops[i] at sched[i] regardless of completions, through
// workers goroutines (each with at most one request in flight). Latency is
// measured from the scheduled send, so time an op waits for a free worker
// counts against the system.
func (rn *runner) openLoop(sched []time.Duration, stepOf []int, ops []op, ladder []step, workers int) *ladderRun {
	n := len(ops)
	lr := &ladderRun{Sched: sched, Step: stepOf, Ops: ops, Ladder: ladder,
		Done: make([]time.Duration, n), Out: make([]outcome, n), Lag: make([]time.Duration, n)}
	queue := make(chan int, n)
	start := time.Now()
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				lr.Out[i] = rn.exec(&lr.Ops[i])
				lr.Done[i] = time.Since(start)
			}
		}()
	}
	for i := 0; i < n; i++ {
		if d := time.Until(start.Add(sched[i])); d > 0 {
			time.Sleep(d)
		}
		lr.Lag[i] = time.Since(start) - sched[i]
		queue <- i
	}
	close(queue)
	wg.Wait()
	return lr
}

// runPasses runs the ladder one pass at a time. A pass is a nominal step
// and the rungs after it, run as an open loop of its own once every op of
// the previous pass has completed and the last rung's gap has passed
// after that, so no pass inherits another's backlog however far past
// saturation its top rung went. The record keeps every offset on the
// ladder's own clock, as if the passes followed one another without
// waiting. sample is called before every pass and after the last.
func (rn *runner) runPasses(sched []time.Duration, stepOf []int, ops []op, ladder []step, workers int, sample func()) *ladderRun {
	n := len(ops)
	lr := &ladderRun{Sched: sched, Step: stepOf, Ops: ops, Ladder: ladder,
		Done: make([]time.Duration, n), Out: make([]outcome, n), Lag: make([]time.Duration, n)}
	var at time.Duration
	for i := 0; i < len(ladder); {
		j := i + 1
		for j < len(ladder) && ladder[j].Rung != 0 {
			j++
		}
		lo := sort.SearchInts(stepOf, i)
		hi := sort.SearchInts(stepOf, j)
		rel := make([]time.Duration, hi-lo)
		for k := range rel {
			rel[k] = sched[lo+k] - at
		}
		sample()
		part := rn.openLoop(rel, stepOf[lo:hi], ops[lo:hi], ladder, workers)
		for k := range rel {
			lr.Done[lo+k] = part.Done[k] + at
			lr.Out[lo+k], lr.Lag[lo+k] = part.Out[k], part.Lag[k]
		}
		time.Sleep(ladder[j-1].Gap)
		for ; i < j; i++ {
			at += ladder[i].Dur + ladder[i].Gap
		}
	}
	sample()
	return lr
}

// rungs summarizes each ladder step; limitMs is the ladder's tail-latency
// limit. A step's backlog counts only the ops of its own pass: on the
// ladder's clock the previous pass's last ops may complete after this one
// started.
func (lr *ladderRun) rungs(workers int, limitMs float64) []rung {
	out := make([]rung, len(lr.Ladder))
	lat := make([][]float64, len(lr.Ladder))
	var base time.Duration
	starts := make([]time.Duration, len(lr.Ladder))
	passOf := make([]int, len(lr.Ladder)) // first step of each step's pass
	for i, st := range lr.Ladder {
		out[i].Rate, out[i].Dur = st.Rate, st.Dur
		starts[i] = base
		base += st.Dur + st.Gap
		if st.Rung != 0 && i > 0 {
			passOf[i] = passOf[i-1]
		} else {
			passOf[i] = i
		}
	}
	for i := range lr.Sched {
		s := lr.Step[i]
		out[s].Sent++
		if lr.Out[i] == outOK {
			out[s].OK++
			lat[s] = append(lat[s], ms(lr.Done[i]-lr.Sched[i]))
		} else {
			// A failed or refused op misses any latency limit, however
			// fast it failed.
			out[s].Failed++
			lat[s] = append(lat[s], math.Inf(1))
		}
	}
	for s := range out {
		out[s].Lat = summarize(lat[s])
		out[s].Achieved = float64(out[s].OK) / out[s].Dur.Seconds()
		lo := sort.SearchInts(lr.Step, passOf[s])
		at := func(quarters time.Duration) int {
			return outstanding(lr.Sched[lo:], lr.Done[lo:], starts[s]+out[s].Dur*quarters/4)
		}
		out[s].Backlog = backlogGrows(at(2), at(3), at(4), workers, out[s].Rate*limitMs/1000)
	}
	return out
}

// latencies returns the ms latencies of the succeeded ops of one rung
// matching pick; failed ops are counted by failed_ratio instead.
func (lr *ladderRun) latencies(rungIdx int, pick func(opKind) bool) []float64 {
	var out []float64
	for i := range lr.Sched {
		if lr.Step[i] == rungIdx && lr.Out[i] == outOK && pick(lr.Ops[i].Kind) {
			out = append(out, ms(lr.Done[i]-lr.Sched[i]))
		}
	}
	return out
}

func (lr *ladderRun) count(o outcome) int {
	n := 0
	for _, x := range lr.Out {
		if x == o {
			n++
		}
	}
	return n
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
