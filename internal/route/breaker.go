package route

import (
	"math/rand"
	"sync"
	"time"
)

// Breaker tuning: three straight failures is already several seconds of
// evidence under the pull/push retry cadence.
const (
	BreakerThreshold = 3
	BreakerCooldown  = 2 * time.Second
)

// Breakers tracks one consecutive-failure circuit breaker per address,
// for the SDK's ClusterClient and the nodes' inter-node calls alike.
// BreakerThreshold straight failures open a circuit for BreakerCooldown,
// during which calls are refused locally instead of burning a timeout
// against a node that is down or partitioned away; then one half-open
// probe closes or re-opens it. Callers classify outcomes by one rule: any
// response is a success (breakers track reachability, not correctness); a
// call ended by the caller's own context proves nothing and is released;
// every other error, a transport timeout included, is a failure. The zero
// value is ready to use.
type Breakers struct {
	mu sync.Mutex
	m  map[string]*breaker
}

// breaker is one address's circuit state; the zero value is closed.
type breaker struct {
	fails     int
	openUntil time.Time
	probing   bool // half-open: one probe in flight
	opens     uint64
}

// track returns addr's breaker, creating a closed one on first contact.
// Callers hold bs.mu.
func (bs *Breakers) track(addr string) *breaker {
	if bs.m == nil {
		bs.m = make(map[string]*breaker)
	}
	b := bs.m[addr]
	if b == nil {
		b = &breaker{}
		bs.m[addr] = b
	}
	return b
}

// Allow reports whether a call to addr may proceed. An open circuit
// refuses until its cooldown elapses, then admits exactly one probe. The
// address counts as tracked from its first Allow on.
func (bs *Breakers) Allow(addr string, now time.Time) bool {
	bs.mu.Lock()
	defer bs.mu.Unlock()
	b := bs.track(addr)
	if b.openUntil.IsZero() {
		return true
	}
	if !now.After(b.openUntil) || b.probing {
		return false
	}
	b.probing = true
	return true
}

// Success closes addr's circuit.
func (bs *Breakers) Success(addr string) {
	bs.mu.Lock()
	defer bs.mu.Unlock()
	if b := bs.m[addr]; b != nil {
		b.fails, b.openUntil, b.probing = 0, time.Time{}, false
	}
}

// Failure records one failed call to addr and reports whether it opened
// (or, for a failed probe, re-opened) the circuit.
func (bs *Breakers) Failure(addr string, now time.Time) bool {
	bs.mu.Lock()
	defer bs.mu.Unlock()
	b := bs.track(addr)
	b.fails++
	b.probing = false
	if b.fails < BreakerThreshold && b.openUntil.IsZero() {
		return false
	}
	b.openUntil = now.Add(BreakerCooldown)
	b.opens++
	return true
}

// Release ends a call without an outcome. The probe flag must still
// clear: Allow admits no second probe while one is marked in flight, so a
// leaked flag would wedge the circuit open until the process restarts.
func (bs *Breakers) Release(addr string) {
	bs.mu.Lock()
	defer bs.mu.Unlock()
	if b := bs.m[addr]; b != nil {
		b.probing = false
	}
}

// Open reports whether addr's circuit is refusing calls at now. It is
// read-only: peeking at an address never contacted tracks nothing, so
// health checks and metrics scrapes don't inflate the tracked set or pin
// stale addresses after ring changes.
func (bs *Breakers) Open(addr string, now time.Time) bool {
	bs.mu.Lock()
	defer bs.mu.Unlock()
	b := bs.m[addr]
	return b != nil && now.Before(b.openUntil)
}

// Snapshot returns the open and tracked circuit counts and the total open
// transitions so far.
func (bs *Breakers) Snapshot(now time.Time) (open, total int, opens uint64) {
	bs.mu.Lock()
	defer bs.mu.Unlock()
	for _, b := range bs.m {
		total++
		opens += b.opens
		if now.Before(b.openUntil) {
			open++
		}
	}
	return open, total, opens
}

// defaultBackoffBase is the first delay of Backoff when base is not
// positive.
const defaultBackoffBase = 250 * time.Millisecond

// Backoff is the capped exponential retry curve: base·2^n, never above
// max (a max below base means base). It cannot overflow at any n. The
// curve is pure so tests can pin it; Jitter spreads it.
func Backoff(base, max time.Duration, n int) time.Duration {
	if base <= 0 {
		base = defaultBackoffBase
	}
	if max < base {
		max = base
	}
	d := base
	for i := 0; i < n; i++ {
		if d >= max/2 {
			return max
		}
		d *= 2
	}
	return d
}

// Jitter spreads d uniformly over [d/2, 3d/2) so callers that failed
// together do not retry in lockstep.
func Jitter(d time.Duration) time.Duration {
	if d <= 0 {
		return d
	}
	return d/2 + time.Duration(rand.Int63n(int64(d)))
}
