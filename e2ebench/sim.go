package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"itag/client"
	"itag/internal/core"
	"itag/internal/crowd"
	"itag/internal/dataset"
	"itag/internal/rng"
	"itag/internal/store"
	"itag/internal/strategy"
	"itag/internal/taggersim"
	"itag/internal/users"
	"itag/internal/vocab"
)

// The simulation workload is Algorithm 1 itself: providers create a fleet
// of simulated fp-mu projects, start them together and poll until every
// one has spent its budget.
const (
	simProjects  = 8
	simBudget    = 2000
	simResources = 200
	simPoll      = 10 * time.Millisecond
)

var simulation = workload{Name: "simulation"}

// simFleets is how many fleets a run of the given length runs in turn.
func simFleets(seconds int) int { return max(1, seconds/10) }

func runSimulation(e env, tr *tracer) (*result, error) {
	if tr != nil {
		return traceSimulation(e, tr)
	}
	hc, _ := sdkHTTP(e.Workers, nil)
	var provs []string
	dep, _, setupS, err := deploy(e, simulation,
		func(root string) (*deployment, error) { return startExec(e.Itagd, root, false) },
		func(dep *deployment) (*world, error) {
			c := client.New(dep.APIs[0], hc)
			provs = provs[:0]
			for i := 0; i < simProjects; i++ {
				id, err := c.RegisterProvider(context.Background(), fmt.Sprintf("provider-%d", i))
				if err != nil {
					return nil, err
				}
				provs = append(provs, id)
			}
			return &world{}, nil
		})
	if err != nil {
		return nil, err
	}
	defer func() {
		dep.close()
		os.RemoveAll(e.runDir(simulation.Name))
	}()
	c := client.New(dep.APIs[0], hc)
	res := &result{Workload: simulation.Name}
	var (
		rates, doneS, stab []float64
		tasks              int
		cpu                time.Duration
	)
	spent := check{Name: "every simulated project spent its whole budget"}
	exported := check{Name: "every simulated project's export accounts for its posts"}
	for f := 0; f < simFleets(e.Seconds); f++ {
		ids := make([]string, simProjects)
		err := parallel(e.Workers, simProjects, func(i int) error {
			id, err := c.CreateProject(context.Background(), client.CreateProjectReq{
				ProviderID: provs[i], Name: fmt.Sprintf("fleet-%d-%d", f, i),
				Budget: simBudget, PayPerTask: 0.05, Strategy: "fp-mu",
				Simulate: true, NumResources: simResources,
			})
			ids[i] = id
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("create simulated project: %w", err)
		}
		cpu0 := dep.cpu()
		started := make([]time.Time, simProjects)
		for i, id := range ids {
			started[i] = time.Now()
			res.Attempted++
			if err := c.StartProject(context.Background(), id); err != nil {
				return nil, fmt.Errorf("start %s: %w", id, err)
			}
		}
		finished := make([]time.Time, simProjects)
		infos := make([]client.ProjectInfo, simProjects)
		var polls, pollFails atomic.Int64
		err = parallel(e.Workers, simProjects, func(i int) error {
			deadline := time.Now().Add(120 * time.Second)
			for time.Now().Before(deadline) {
				ctx, cancel := opCtx()
				info, err := c.GetProject(ctx, ids[i])
				cancel()
				polls.Add(1)
				if err != nil {
					pollFails.Add(1)
				} else if info.Project.Status == "done" && !info.Running {
					finished[i], infos[i] = time.Now(), info
					return nil
				}
				time.Sleep(simPoll)
			}
			return fmt.Errorf("project %s not done after 120s", ids[i])
		})
		if err != nil {
			return nil, err
		}
		cpu += dep.cpu() - cpu0
		res.Attempted += int(polls.Load())
		res.Failed += int(pollFails.Load())
		first, last := started[0], finished[0]
		fleetTasks := 0
		for i := range ids {
			if finished[i].After(last) {
				last = finished[i]
			}
			doneS = append(doneS, finished[i].Sub(started[i]).Seconds())
			stab = append(stab, infos[i].MeanStability)
			fleetTasks += infos[i].Spent
			spent.Total++
			if infos[i].Spent == simBudget {
				spent.Passed++
			} else if spent.Detail == "" {
				spent.Detail = fmt.Sprintf("%s spent %d of %d", ids[i], infos[i].Spent, simBudget)
			}
			exported.Total++
			rows, err := exportPosts(c, ids[i])
			posts := 0
			for _, n := range rows {
				posts += n
			}
			switch {
			case err != nil:
				exported.Detail = err.Error()
			case posts == infos[i].Spent:
				exported.Passed++
			case exported.Detail == "":
				exported.Detail = fmt.Sprintf("%s spent %d tasks but its export has %d rows holding %d posts", ids[i], infos[i].Spent, len(rows), posts)
			}
		}
		tasks += fleetTasks
		rates = append(rates, float64(fleetTasks)/last.Sub(first).Seconds())
	}
	res.Checks = []check{spent, exported}
	for _, ch := range res.Checks {
		res.Attempted += ch.Total
		res.Failed += ch.Total - ch.Passed
		res.Wrong += ch.Total - ch.Passed
	}
	e2e := &res.E2E
	res.add(e2e, "setup_s", "s", setupS, fmt.Sprintf("median of %d deployments from exec to provisioned providers", setupRepeats))
	res.add(e2e, "sim_tasks_per_s", "tasks/s", median(rates), fmt.Sprintf("median over %d fleets of %d projects x %d budget x %d resources", len(rates), simProjects, simBudget, simResources))
	res.add(e2e, "project_done_p50_s", "s", median(doneS), fmt.Sprintf("StartProject to first poll reporting done (poll every %s)", simPoll))
	res.add(e2e, "mean_stability", "ratio", mean(stab), "mean over the fleet's projects after the budget is spent")
	res.add(e2e, "cpu_ms_per_op", "ms", ms(cpu)/float64(max(tasks, 1)), "itagd CPU per simulated task")
	res.add(e2e, "peak_rss_mb", "MiB", dep.peakRSS(), "max VmHWM")
	res.add(e2e, "disk_mb", "MiB", dep.diskMiB(), "data directory at the end of the run")
	res.add(e2e, "failed_ratio", "ratio", float64(res.Failed)/float64(max(res.Attempted, 1)), "(failed + refused + wrong-result ops) / attempted, checks included")
	return res, nil
}

// traceSimulation steps the same fleets in-process, with engines built the
// way the service builds a simulated run, and its strategy, crowd platform
// and store traced.
func traceSimulation(e env, tr *tracer) (*result, error) {
	root := e.runDir(simulation.Name)
	os.RemoveAll(root)
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, err
	}
	db, err := store.Open(filepath.Join(root, "itag.wal"), defaultStoreOpts)
	if err != nil {
		return nil, err
	}
	defer func() {
		db.Close()
		os.RemoveAll(root)
	}()
	cat := store.NewCatalog(&tracedStore{Store: db, t: tr})
	um, ledger, intern := users.NewManager(), crowd.NewLedger(), vocab.NewInterner()
	res := &result{Workload: simulation.Name, Traced: true}
	var rates []float64
	var all []span
	for f := 0; f < simFleets(e.Seconds); f++ {
		engines := make([]*core.Engine, simProjects)
		for i := range engines {
			eng, err := simEngine(e.Seed*1000+int64(f*simProjects+i), cat, um, ledger, intern, tr)
			if err != nil {
				return nil, err
			}
			engines[i] = eng
		}
		tr.reset()
		start := time.Now()
		errs := make([]error, simProjects)
		var wg sync.WaitGroup
		for i, eng := range engines {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					exit := tr.enter("core.step", "")
					done, err := eng.StepContext(context.Background())
					exit(0)
					if err != nil || done {
						errs[i] = err
						return
					}
				}
			}()
		}
		wg.Wait()
		wall := time.Since(start)
		all = append(all, tr.take()...)
		tasks := 0
		for i, eng := range engines {
			if errs[i] != nil {
				return nil, errs[i]
			}
			tasks += eng.Spent()
		}
		res.Attempted += tasks
		rates = append(rates, float64(tasks)/wall.Seconds())
	}
	res.add(&res.E2E, "sim_tasks_per_s", "tasks/s", median(rates), "traced, engines stepped in-process")

	steps := map[uint64]span{}
	var stepDur, chooseDur, crowdDur []float64
	idle := 0
	children := map[uint64][]span{}
	for _, s := range all {
		switch s.Name {
		case "core.step":
			steps[s.ID] = s
			stepDur = append(stepDur, s.dur())
		case "strategy.choose":
			chooseDur = append(chooseDur, s.dur())
			children[s.Parent] = append(children[s.Parent], s)
		case "crowd.step":
			crowdDur = append(crowdDur, s.dur())
			children[s.Parent] = append(children[s.Parent], s)
			if s.N == 0 {
				idle++
			}
		case "store.put":
			// OnPost persists each post inside the step; the store has its
			// own metrics, so step self time leaves it out too.
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make([]float64, 0, len(steps))
	for id, s := range steps {
		self = append(self, s.dur()-covered(s, children[id]))
	}
	lay := &res.Layers
	n := float64(max(len(steps), 1))
	res.add(lay, "core.step_p50_ms", "ms", summarize(stepDur).P50, summarize(stepDur).String())
	res.add(lay, "core.step_self_ms", "ms", median(self), "median step time outside strategy, crowd and store calls")
	res.add(lay, "strategy.choose_p50_ms", "ms", summarize(chooseDur).P50, summarize(chooseDur).String())
	res.add(lay, "strategy.choose_share", "ratio", sum(chooseDur)/max(sum(stepDur), 1e-9), "strategy time / step time")
	res.add(lay, "crowd.step_ms_per_batch", "ms", sum(crowdDur)/n, "crowd platform time per engine step")
	res.add(lay, "crowd.idle_steps_per_batch", "count", float64(idle)/n, "platform steps yielding no result, per engine step")
	puts := summarize(durations(filterSpans(all, "store.put")))
	res.add(lay, "store.put_p50_ms", "ms", puts.P50, puts.String())
	res.add(lay, "store.put_p99_ms", "ms", puts.P99, "")
	if path := tr.dump(e.Work, simulation.Name, all); path != "" {
		res.Notes = append(res.Notes, "spans written to "+path)
	}
	return res, nil
}

// simEngine builds one simulated fp-mu run the way core.Service does for
// a project created with simulate=true on the mturk-sim platform, with
// the strategy and platform traced.
func simEngine(seed int64, cat *store.Catalog, um *users.Manager, ledger *crowd.Ledger, intern *vocab.Interner, tr *tracer) (*core.Engine, error) {
	world, err := dataset.Generate(rng.New(seed), dataset.GeneratorConfig{NumResources: simResources})
	if err != nil {
		return nil, err
	}
	pop, err := taggersim.NewPopulation(rng.New(seed+1), taggersim.PopulationConfig{Size: 40, UnreliableFraction: 0.1})
	if err != nil {
		return nil, err
	}
	sim := taggersim.NewSimulator(world).UseInterner(intern)
	qualify := func(w string) bool { return um.Qualified(w, 0.5, 10) }
	plat, err := crowd.NewMTurkSim(core.WorkerIDs(pop), core.GenerativeSource(sim, pop, seed+2), qualify, seed+3)
	if err != nil {
		return nil, err
	}
	strat, err := strategy.Parse("fp-mu")
	if err != nil {
		return nil, err
	}
	return core.New(core.Config{
		Resources: world.Dataset.Resources,
		Strategy:  &tracedStrategy{Strategy: strat, t: tr},
		Budget:    simBudget, Users: um, Ledger: ledger, PayPerTask: 0.05,
		ProviderID: "provider", Seed: seed, Interner: intern,
		Platform: &tracedPlatform{Platform: plat, t: tr},
		Judge:    core.LatentOverlapJudge(world, 0.5),
		OnPost: func(resourceID, taggerID string, tags []string) {
			_, _ = cat.AppendPost(store.PostRec{ResourceID: resourceID, TaggerID: taggerID, Tags: tags, Time: time.Now().UTC()})
		},
	})
}

func filterSpans(ss []span, name string) []span {
	var out []span
	for _, s := range ss {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func mean(xs []float64) float64 { return sum(xs) / float64(max(len(xs), 1)) }

// parallel runs fn(0..n-1) on at most workers goroutines and returns the
// first error.
func parallel(workers, n int, fn func(i int) error) error {
	var next atomic.Int64
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n || errs[g] != nil {
					return
				}
				errs[g] = fn(i)
			}
		}()
	}
	wg.Wait()
	sort.Slice(errs, func(i, j int) bool { return errs[i] != nil && errs[j] == nil })
	return errs[0]
}
