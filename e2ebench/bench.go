package main

import (
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"

	"itag/client"
)

// workload is one traffic mix over one deployment.
type workload struct {
	Name    string
	Cluster bool // 3-node -cluster-quorum ring instead of one node
	Shape   shape
	Mix     mix
	Nominal float64   // offered ops/s of the nominal rung; the latency and CPU metrics come from it
	Ladder  []float64 // offered ops/s of the rungs above it, ascending
	LimitMs float64   // tail-latency limit of the ladder rule
}

// geometric returns ladderRungs rates from lo, each ladderRatio times the
// last.
func geometric(lo float64) []float64 {
	out := make([]float64, ladderRungs)
	for i := range out {
		out[i] = math.Round(lo * math.Pow(ladderRatio, float64(i)))
	}
	return out
}

// The ladder above the nominal rung: ladderRungs rungs, each ladderRatio
// times the last, spanning 2.9x: a workload's saturation rate moves by
// half between quiet and noisy hours of the shared host.
const (
	ladderRungs = 5
	ladderRatio = 1.3
)

var workloads = []workload{
	// Open-loop tagger rounds over many manual fp-mu projects: WAL group
	// commit/fsync and core's manual path do the work.
	{
		Name: "tagging",
		Shape: shape{ProvidersPerNode: 8, TaggersPerNode: 128, ProjectsPerNode: 64, ResourcesPerProj: 40,
			NameBytes: 40, Vocab: 400, ProjectSkew: 1.1, ResourceSkew: 1.0, TagSkew: 1.0},
		Nominal: 150, Ladder: geometric(600), LimitMs: 200,
	},
	// Provider reads over ~15 MiB of distinct responses (128 first export
	// pages of ~110 KB, 12,800 resource details) against the 8 MiB response
	// cache, beside durable rounds: respcache, record cache, export scan.
	{
		Name: "dashboard",
		Shape: shape{ProvidersPerNode: 8, TaggersPerNode: 64, ProjectsPerNode: 128, ResourcesPerProj: 100,
			NameBytes: 1000, Vocab: 400, ProjectSkew: 1.1, ResourceSkew: 1.0, TagSkew: 1.0},
		Mix:     mix{GetProject: 0.16, GetResource: 0.48, Export: 0.2},
		Nominal: 200, Ladder: geometric(480), LimitMs: 200,
	},
	// Rounds through ClusterClient on a 3-node -cluster-quorum ring plus
	// follower reads: routing, quorum and replication do the work.
	{
		Name:    "cluster",
		Cluster: true,
		Shape: shape{ProvidersPerNode: 2, TaggersPerNode: 32, ProjectsPerNode: 16, ResourcesPerProj: 40,
			NameBytes: 40, Vocab: 400, ProjectSkew: 1.1, ResourceSkew: 1.0, TagSkew: 1.0},
		Mix:     mix{GetProject: 0.35, Export: 0.15},
		Nominal: 90, Ladder: geometric(320), LimitMs: 200,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// Every run first warms the deployment up at the nominal rate for warmup,
// unmeasured. The rest of the run's seconds is split into passes, each a
// window of the nominal rung followed by every rung of the ladder in
// ascending order; the timing metrics take each rung from its
// least-disturbed pass, so a burst of host noise that spares one pass does
// not move them. Every rung is followed by
// rungGap without arrivals, in which its backlog drains, so a stall in one
// rung does not spill into the next. The top rung, past saturation, is
// followed by drain, counted from when its last op completed, so its
// backlog and the work it leaves behind are gone before the next pass's
// nominal window starts.
const (
	warmup  = 2 * time.Second
	passes  = 3
	rungFor = 1200 * time.Millisecond
	rungGap = 400 * time.Millisecond
	drain   = 500 * time.Millisecond
)

func (w workload) ladderFor(seconds int) []step {
	pass := (time.Duration(seconds)*time.Second - warmup) / passes
	nominal := pass - time.Duration(len(w.Ladder))*(rungFor+rungGap) - drain
	var out []step
	for p := 0; p < passes; p++ {
		out = append(out, step{Rate: w.Nominal, Dur: max(nominal, rungFor), Gap: rungGap})
		for j, r := range w.Ladder {
			out = append(out, step{Rate: r, Dur: rungFor, Gap: rungGap, Rung: j + 1})
		}
		out[len(out)-1].Gap = drain
	}
	return out
}

// deployment is the system under test: one itagd or a three-node ring,
// exec'd (untraced run) or hosted in this process (traced run).
type deployment struct {
	APIs    []string
	Debugs  []string
	Dirs    []string
	daemons []*daemon
	close   func()
}

var slotNames = []string{"alpha", "beta", "gamma"}

// startExec execs itagd for the workload under root.
func startExec(bin, root string, cluster bool) (*deployment, error) {
	n := 1
	if cluster {
		n = 3
	}
	addrs := make([]string, n)
	var ring []string
	for i := range addrs {
		a, err := freePort()
		if err != nil {
			return nil, err
		}
		addrs[i] = a
		ring = append(ring, slotNames[i]+"=http://"+a)
	}
	dep := &deployment{}
	dep.close = func() {
		for _, d := range dep.daemons {
			d.stop(30 * time.Second)
		}
	}
	for i, a := range addrs {
		dir := filepath.Join(root, fmt.Sprintf("node%d", i))
		var d *daemon
		var err error
		if cluster {
			d, err = startDaemon(bin, a, dir, dir, "-cluster-slot", slotNames[i],
				"-cluster-ring", strings.Join(ring, ","), "-cluster-quorum")
		} else {
			d, err = startDaemon(bin, a, dir, filepath.Join(dir, "itag.wal"))
		}
		if err != nil {
			dep.close()
			return nil, err
		}
		dep.daemons = append(dep.daemons, d)
		dep.APIs = append(dep.APIs, d.api)
		dep.Debugs = append(dep.Debugs, d.debug)
		dep.Dirs = append(dep.Dirs, dir)
	}
	hc := &http.Client{Timeout: time.Second}
	for _, d := range dep.daemons {
		if err := d.waitHealthy(hc, 30*time.Second); err != nil {
			dep.close()
			return nil, err
		}
	}
	return dep, nil
}

// setupRepeats is how many times a run deploys and provisions from scratch;
// setup_s is the median, and the last deployment is the one measured.
const setupRepeats = 3

// env is what a run needs besides the workload.
type env struct {
	Itagd   string
	Work    string
	Seed    int64
	Seconds int
	Workers int
	Trace   bool
}

// result is everything one workload run measured.
type result struct {
	Workload  string
	Traced    bool
	Attempted int
	Failed    int // failed, refused and wrong-result ops
	Wrong     int
	Checks    []check
	E2E       []metric // end-to-end metrics, in report order
	Layers    []metric // per-layer metrics (traced run)
	Counts    []metric // per-layer counts also read in the untraced run
	Rungs     []rung
	Sustained int
	Notes     []string
}

type metric struct {
	Name  string
	Unit  string
	Value float64
	Note  string
}

type check struct {
	Name   string
	Passed int
	Total  int
	Detail string
}

func (r *result) add(list *[]metric, name, unit string, v float64, note string) {
	*list = append(*list, metric{Name: name, Unit: unit, Value: v, Note: note})
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// runDir holds every data directory of one workload's run; the run removes
// it when it ends. Earlier deployments stay on disk until then: deleting
// files on a filesystem mounted with online discard stalls fsyncs.
func (e env) runDir(name string) string { return filepath.Join(e.Work, name) }

// deploy runs the set-up setupRepeats times and keeps the last deployment.
func deploy(e env, w workload, start func(root string) (*deployment, error),
	prov func(*deployment) (*world, error)) (*deployment, *world, float64, error) {
	var secs []float64
	var dep *deployment
	var wd *world
	os.RemoveAll(e.runDir(w.Name)) // left behind by a killed run
	for i := 0; i < setupRepeats; i++ {
		if dep != nil {
			dep.close()
		}
		// Flush dirty pages (the last deployment's files, a fresh build)
		// so their writeback does not stall this set-up's fsyncs.
		syscall.Sync()
		t0 := time.Now()
		var err error
		if dep, err = start(filepath.Join(e.runDir(w.Name), fmt.Sprint(i))); err != nil {
			return nil, nil, 0, err
		}
		if wd, err = prov(dep); err != nil {
			dep.close()
			return nil, nil, 0, err
		}
		secs = append(secs, time.Since(t0).Seconds())
	}
	syscall.Sync()
	return dep, wd, median(secs), nil
}

func clientsFor(dep *deployment, hc *http.Client) []*client.Client {
	out := make([]*client.Client, len(dep.APIs))
	for i, a := range dep.APIs {
		out[i] = client.New(a, hc)
	}
	return out
}
