package client

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"itag/internal/cluster"
	"itag/internal/route"
)

// TestClusterClientHopCapOnRedirectLoop pins the bounded 421-follow loop:
// two misconfigured nodes that each point at the other would previously
// bounce the SDK forever. The route loop must stop at maxRouteHops and
// surface a RouteError wrapping the final not_owner reply.
func TestClusterClientHopCapOnRedirectLoop(t *testing.T) {
	ctx := context.Background()
	tr := cluster.NewHandlerTransport()
	ring := RingInfo{Version: 1, VNodes: 4, Members: []RingMember{
		{Slot: "a", Addr: "http://a"}, {Slot: "b", Addr: "http://b"},
	}}
	mk := func(other string) http.Handler {
		mux := http.NewServeMux()
		mux.HandleFunc("/api/v1/cluster/ring", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			_ = json.NewEncoder(w).Encode(ring)
		})
		mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("X-Itag-Owner", other)
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusMisdirectedRequest)
			_, _ = w.Write([]byte(`{"error":{"code":"not_owner","message":"led elsewhere"}}`))
		})
		return mux
	}
	tr.Register("a", mk("http://b"))
	tr.Register("b", mk("http://a"))

	cc := NewCluster([]string{"http://a"}, tr.Client())
	_, err := cc.GetProject(ctx, "proj-000001")
	var re *RouteError
	if !errors.As(err, &re) {
		t.Fatalf("redirect ping-pong returned %T (%v), want *RouteError", err, err)
	}
	if re.Hops != maxRouteHops {
		t.Errorf("RouteError.Hops = %d, want %d", re.Hops, maxRouteHops)
	}
	var ae *APIError
	if !errors.As(re.Last, &ae) || ae.Code != CodeNotOwner {
		t.Errorf("RouteError.Last = %v, want the final not_owner reply", re.Last)
	}
}

// TestClusterClientProbeCancelDoesNotWedgeBreaker pins the half-open
// recovery path. The single admitted probe can end short of a response in
// two ways, and neither may wedge the breaker:
//   - the caller abandons it (its own context ends): the probe proves
//     nothing about the node, so it is released without an outcome and the
//     next call is admitted at once. A leaked probing flag used to wedge
//     the breaker shut forever: every later call returned ErrNodeSuspect
//     even after the node recovered, and only a process restart cleared it;
//   - the node times it out (a transport timeout while the caller's context
//     is live): that is a failure, so the circuit re-opens, and a new probe
//     is admitted after the cooldown.
func TestClusterClientProbeCancelDoesNotWedgeBreaker(t *testing.T) {
	const addr = "http://x"
	// openPastCooldown opens the circuit with failures stamped in the past,
	// so the cooldown has already elapsed and the next call is the
	// half-open probe.
	openPastCooldown := func() *ClusterClient {
		cc := NewCluster([]string{addr}, nil)
		past := time.Now().Add(-2 * route.BreakerCooldown)
		for i := 0; i < route.BreakerThreshold; i++ {
			cc.breakers.Failure(addr, past)
		}
		return cc
	}
	ok := func(*Client) error { return nil }
	live := context.Background()

	t.Run("abandoned", func(t *testing.T) {
		cc := openPastCooldown()
		ctx, cancel := context.WithCancel(live)
		err := cc.call(ctx, addr, nil, func(*Client) error { cancel(); return ctx.Err() })
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("probe call returned %v, want Canceled", err)
		}
		// The node recovers. The next call must be admitted (a fresh
		// probe) — not refused with ErrNodeSuspect forever.
		if err := cc.call(live, addr, nil, ok); err != nil {
			t.Fatalf("breaker wedged after an abandoned probe: %v", err)
		}
		// And the successful probe closed the circuit fully.
		if err := cc.call(live, addr, nil, ok); err != nil {
			t.Fatalf("circuit not closed after a successful probe: %v", err)
		}
	})

	t.Run("timed out", func(t *testing.T) {
		cc := openPastCooldown()
		timeout := fmt.Errorf("client timeout: %w", context.DeadlineExceeded)
		if err := cc.call(live, addr, nil, func(*Client) error { return timeout }); !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("probe call returned %v, want DeadlineExceeded", err)
		}
		if err := cc.call(live, addr, nil, ok); !errors.Is(err, ErrNodeSuspect) {
			t.Fatalf("call right after a timed-out probe = %v, want ErrNodeSuspect (circuit re-opened)", err)
		}
		// Once the cooldown passes a new probe is admitted, and its
		// success closes the circuit.
		if !cc.breakers.Allow(addr, time.Now().Add(route.BreakerCooldown+time.Millisecond)) {
			t.Fatal("breaker wedged: no probe admitted after the cooldown")
		}
		cc.breakers.Success(addr)
		if err := cc.call(live, addr, nil, ok); err != nil {
			t.Fatalf("circuit not closed after a successful probe: %v", err)
		}
	})
}

// TestClusterClientBreakerOpensOnHungNode pins the other side of the
// give-up rule: a node that accepts requests but never answers fails every
// call through the caller's http.Client timeout. That error satisfies
// errors.Is(err, context.DeadlineExceeded) although the caller's context is
// live; it is the node's failure, so after the threshold the client refuses
// the node locally instead of burning another timeout on it.
func TestClusterClientBreakerOpensOnHungNode(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-r.Context().Done()
	}))
	defer srv.Close()
	cc := NewCluster([]string{srv.URL}, &http.Client{Timeout: 30 * time.Millisecond})
	ctx := context.Background()
	for i := 0; i < route.BreakerThreshold; i++ {
		if err := cc.Refresh(ctx); !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("call %d to the hung node = %v, want a client timeout", i+1, err)
		}
	}
	if err := cc.Refresh(ctx); !errors.Is(err, ErrNodeSuspect) {
		t.Fatalf("after %d timeouts: %v, want ErrNodeSuspect", route.BreakerThreshold, err)
	}
}

// TestClusterClientBreakerSkipsDeadNode pins the SDK-side circuit breaker:
// after repeated transport failures against a dead owner the client
// refuses further calls to it locally (ErrNodeSuspect) instead of burning
// timeouts, and once a survivor is promoted the next routed call lands on
// the new leader without ever re-dialing the dead address.
func TestClusterClientBreakerSkipsDeadNode(t *testing.T) {
	ctx := context.Background()
	cc, tr, nodes := startTestCluster(t, []string{"alpha", "beta", "gamma"})
	slot, project, tagger := seedClusterProject(t, nodes)
	if err := cc.Refresh(ctx); err != nil {
		t.Fatal(err)
	}
	task, err := cc.RequestTask(ctx, project, tagger)
	if err != nil {
		t.Fatal(err)
	}
	if err := cc.SubmitTask(ctx, project, task.ID, []string{"go", "pre-kill"}); err != nil {
		t.Fatal(err)
	}

	// Let a survivor's replica absorb the full WAL, then kill the owner.
	var surv string
	for s := range nodes {
		if s != slot {
			surv = s
			break
		}
	}
	leaderSeq := nodes[slot].DB(slot).AppliedSeq()
	deadline := time.Now().Add(5 * time.Second)
	for {
		rdb := nodes[surv].ReplicaDB(slot)
		if rdb != nil && rdb.AppliedSeq() >= leaderSeq {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("survivor replica never caught up to leader seq %d", leaderSeq)
		}
		time.Sleep(2 * time.Millisecond)
	}
	tr.Register(slot, nil)

	// Failures accumulate per dial; once the threshold is crossed the
	// breaker opens and the route fails locally with ErrNodeSuspect.
	sawSuspect := false
	for i := 0; i < 2*route.BreakerThreshold && !sawSuspect; i++ {
		_, err := cc.GetProject(ctx, project)
		if err == nil {
			t.Fatal("dead owner served a read")
		}
		sawSuspect = errors.Is(err, ErrNodeSuspect)
	}
	if !sawSuspect {
		t.Fatal("breaker never opened: calls kept dialing the dead node")
	}

	// Promote. The dead address stays dark and its breaker open: the next
	// routed call must refresh through the survivors and land on the new
	// leader without waiting out a transport timeout against the corpse.
	if err := nodes[surv].Promote(ctx, slot); err != nil {
		t.Fatal(err)
	}
	info, err := cc.GetProject(ctx, project)
	if err != nil {
		t.Fatalf("routed read after promotion: %v", err)
	}
	if info.Project.ID != project {
		t.Fatalf("GetProject = %+v", info)
	}
	if v := cc.Ring().Version; v < 2 {
		t.Fatalf("SDK did not adopt the promoted ring (version %d)", v)
	}
}
