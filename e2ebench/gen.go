package main

import (
	"math"
	"math/rand"
	"sort"
	"time"
)

// Every random draw of the benchmark comes from a *rand.Rand derived from
// the -seed flag and a fixed stream label, so a seed always yields the same
// worlds, schedules and operation mixes, and itagd sees only the requests
// built from them.
func newRand(seed int64, stream int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + stream))
}

// zipf draws ranks 0..n-1 with P(k) proportional to 1/(k+1)^s. Unlike
// math/rand.Zipf it accepts any s >= 0 (s = 0 is uniform), which is the
// range reported for tag and resource popularity in tagging systems.
type zipf struct {
	cdf []float64
}

func newZipf(n int, s float64) *zipf {
	z := &zipf{cdf: make([]float64, n)}
	sum := 0.0
	for k := 0; k < n; k++ {
		sum += 1 / math.Pow(float64(k+1), s)
		z.cdf[k] = sum
	}
	for k := range z.cdf {
		z.cdf[k] /= sum
	}
	return z
}

func (z *zipf) draw(r *rand.Rand) int {
	u := r.Float64()
	k := sort.SearchFloat64s(z.cdf, u)
	if k >= len(z.cdf) {
		k = len(z.cdf) - 1
	}
	return k
}

// step is one pass's run of a rung of the offered-load ladder.
type step struct {
	Rate float64       // offered operations per second
	Dur  time.Duration // how long the rung sends
	Gap  time.Duration // pause after it, with no arrivals
	Rung int           // the ladder rung it repeats (0 = the nominal rung)
}

// poisson returns the send times, as offsets from the start of the ladder,
// of a Poisson process that runs each step at its rate in turn, pausing for
// each step's gap; stepOf[i] is the rung of arrival i.
func poisson(r *rand.Rand, ladder []step) (at []time.Duration, stepOf []int) {
	var base time.Duration
	for si, st := range ladder {
		t := 0.0
		end := st.Dur.Seconds()
		for {
			t += r.ExpFloat64() / st.Rate
			if t >= end {
				break
			}
			at = append(at, base+time.Duration(t*float64(time.Second)))
			stepOf = append(stepOf, si)
		}
		base += st.Dur + st.Gap
	}
	return at, stepOf
}

// drawTags returns lo..hi distinct tags drawn from vocab by popularity.
func drawTags(r *rand.Rand, z *zipf, vocab []string, lo, hi int) []string {
	n := lo + r.Intn(hi-lo+1)
	tags := make([]string, 0, n)
	for len(tags) < n {
		t := vocab[z.draw(r)]
		dup := false
		for _, have := range tags {
			dup = dup || have == t
		}
		if !dup {
			tags = append(tags, t)
		}
	}
	return tags
}
