package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
)

// pct returns the nearest-rank q-quantile (0 < q <= 1) of sorted samples.
func pct(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// tailCandidates are the percentiles the tail rule chooses from.
var tailCandidates = []float64{0.999, 0.99, 0.95, 0.9, 0.5}

// tailRule returns the highest candidate percentile that leaves at least
// ten samples beyond it among n; ok is false when not even the median does.
func tailRule(n int) (q float64, ok bool) {
	for _, q := range tailCandidates {
		if float64(n)*(1-q) >= 10-1e-9 {
			return q, true
		}
	}
	return 0, false
}

// dist summarizes a latency sample in milliseconds.
type dist struct {
	N     int
	P50   float64
	P99   float64
	TailQ float64 // highest percentile with >= 10 samples beyond it (0 if none)
	Tail  float64 // the value at TailQ
	Max   float64
}

func summarize(ms []float64) dist {
	s := append([]float64(nil), ms...)
	sort.Float64s(s)
	d := dist{N: len(s), P50: pct(s, 0.5), P99: pct(s, 0.99), Max: pct(s, 1)}
	if q, ok := tailRule(len(s)); ok {
		d.TailQ, d.Tail = q, pct(s, q)
	}
	return d
}

// String states the median, the tail the sample supports and its size.
func (d dist) String() string {
	if d.N == 0 {
		return "no samples"
	}
	tail := "; no percentile has 10 samples beyond it"
	switch {
	case d.TailQ > 0.99:
		tail = fmt.Sprintf("; p%g %.3f", d.TailQ*100, d.Tail)
	case d.TailQ == 0.99:
		tail = ""
	case d.TailQ > 0:
		tail = fmt.Sprintf("; p99 has < 10 samples beyond it, p%g %.3f", d.TailQ*100, d.Tail)
	}
	return fmt.Sprintf("p50 %.3f  p99 %.3f (n=%d%s)", d.P50, d.P99, d.N, tail)
}

// fmtList renders values as "(a, b, c)" with three decimals.
func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.3f", x)
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// rung is what one ladder step measured.
type rung struct {
	Rate     float64       // offered ops/s
	Dur      time.Duration // rung length
	Sent     int           // ops scheduled in the rung
	OK       int           // ops that succeeded
	Failed   int           // ops that failed or were refused
	Lat      dist          // latency from scheduled send, ms; failed ops count as +Inf
	Backlog  bool          // outstanding ops grew through the rung
	Achieved float64       // OK ops per second of the rung
	Tails    []float64     // tail latency of each pass, ms (merged rungs)
}

func (r rung) failShare() float64 {
	if r.Sent == 0 {
		return 0
	}
	return float64(r.Failed) / float64(r.Sent)
}

// tail is the latency the ladder rule holds to the limit: the rung's p99
// when at least ten ops lie beyond it, else the highest percentile that
// has ten beyond it (p95 for a rung of 200 to 999 ops), else its maximum.
func (r rung) tail() float64 {
	if r.Lat.TailQ > 0 {
		return r.Lat.Tail
	}
	return r.Lat.Max
}

// mergePasses folds the passes of every rung into one rung per ladder rate.
// Its latency and backlog are those of its least-disturbed pass, the one
// with the lowest tail: noise from the shared host only ever adds latency,
// and it comes in bursts of seconds that often spare one pass of three.
// Its counts add up over all passes, so its failure share counts every
// failed op.
func mergePasses(ladder []step, perStep []rung) []rung {
	var byRung [][]rung
	for i, st := range ladder {
		for len(byRung) <= st.Rung {
			byRung = append(byRung, nil)
		}
		byRung[st.Rung] = append(byRung[st.Rung], perStep[i])
	}
	out := make([]rung, len(byRung))
	for j, ps := range byRung {
		best := ps[0]
		m := rung{Rate: best.Rate}
		for _, p := range ps {
			m.Dur += p.Dur
			m.Sent += p.Sent
			m.OK += p.OK
			m.Failed += p.Failed
			m.Tails = append(m.Tails, p.tail())
			if p.tail() < best.tail() {
				best = p
			}
		}
		m.Lat, m.Backlog = best.Lat, best.Backlog
		m.Achieved = float64(m.OK) / m.Dur.Seconds()
		out[j] = m
	}
	return out
}

// sustained applies the ladder rule: the highest rung whose tail latency
// meets limitMs, whose backlog does not grow and whose failure share is no
// higher than the first rung's. A lower rung that failed does not count
// against it: the gap after every rung drains its backlog, so a failure
// there was a stall, not saturation. It returns -1 when no rung passes.
func sustained(rungs []rung, limitMs float64) int {
	best := -1
	for i, r := range rungs {
		if r.Sent > 0 && r.tail() <= limitMs && !r.Backlog && r.failShare() <= rungs[0].failShare() {
			best = i
		}
	}
	return best
}

// sustainedRate is the offered rate at which the ladder's tail latency
// reaches the limit: the rate of the highest passing rung best, raised
// toward the next rung's by where the limit falls between their tails on
// log scales. When the next rung failed by backlog or failures with its
// tail under the limit, it is best's own rate. Interpolating keeps the
// metric from jumping a whole rung when the crossing moves a little.
func sustainedRate(rungs []rung, best int, limitMs float64) float64 {
	if best < 0 {
		return 0
	}
	lo := rungs[best]
	if best == len(rungs)-1 {
		return lo.Rate
	}
	hi := rungs[best+1]
	f := 0.0
	if t0, t1 := lo.tail(), hi.tail(); t1 > limitMs && t0 > 0 && !math.IsInf(t1, 1) {
		f = min(max(math.Log(limitMs/t0)/math.Log(t1/t0), 0), 1)
	}
	return lo.Rate * math.Pow(hi.Rate/lo.Rate, f)
}

// backlogGrows reports whether arrivals outran completions through a rung:
// the outstanding ops rise from its midpoint to its third quarter to its
// end, where they exceed twice the workers and limitOps, the ops that
// arrive at the rung's rate within the tail-latency limit. By Little's law
// that many outstanding ops mean the latest ones wait past the limit; a
// shorter stall late in the rung, which a saturated server's steady growth
// does not resemble, does not count as a backlog.
func backlogGrows(outMid, out3q, outEnd, workers int, limitOps float64) bool {
	return float64(outEnd) > max(float64(2*workers), limitOps) && outEnd > out3q && out3q > outMid
}

// outstanding counts ops scheduled at or before t that had not completed
// by t; sched and done are offsets from the start of the ladder (done < 0
// for ops that never completed).
func outstanding(sched, done []time.Duration, t time.Duration) int {
	n := 0
	for i, s := range sched {
		if s <= t && (done[i] < 0 || done[i] > t) {
			n++
		}
	}
	return n
}
