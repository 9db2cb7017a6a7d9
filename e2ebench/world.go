package main

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync/atomic"

	"itag/client"
)

// shape sizes one workload's world and traffic.
type shape struct {
	ProvidersPerNode int
	TaggersPerNode   int
	ProjectsPerNode  int
	ResourcesPerProj int
	NameBytes        int     // length of each resource name (sizes read responses)
	Vocab            int     // distinct tags
	ProjectSkew      float64 // Zipf exponent of project popularity
	ResourceSkew     float64 // Zipf exponent of resource popularity within a project
	TagSkew          float64 // Zipf exponent of tag popularity
}

// project is one provisioned manual project and what the load acked on it.
type project struct {
	ID      string
	Node    int
	Res     []string
	resIdx  map[string]int
	Taggers []string // taggers registered on the project's node

	acked   []atomic.Int64 // acknowledged submits per resource
	ackedOK []atomic.Int64 // of those, stamped X-Itag-Quorum: ok
	unknown atomic.Int64   // submits whose outcome is unknown (failed calls)
}

type world struct {
	Projects []*project
	Vocab    []string
}

// resourceName builds a deterministic name of about n bytes from vocab
// words, so read responses have a chosen size.
func resourceName(r *rand.Rand, id string, vocab []string, n int) string {
	var b strings.Builder
	b.WriteString(id)
	for b.Len() < n {
		b.WriteByte(' ')
		b.WriteString(vocab[r.Intn(len(vocab))])
	}
	return b.String()
}

// provision registers providers and taggers and uploads the manual
// projects on every node through the SDK, using at most workers concurrent
// calls. Node n's clients are nodes[n]; in a cluster each node mints IDs
// into the slot it leads, so a project's taggers live on its node.
func provision(nodes []*client.Client, sh shape, seed int64, workers int) (*world, error) {
	r := newRand(seed, 1)
	w := &world{}
	for i := 0; i < sh.Vocab; i++ {
		w.Vocab = append(w.Vocab, fmt.Sprintf("tag%04d", i))
	}
	ctx := context.Background()
	type job struct {
		node int
		req  client.CreateProjectReq
		res  []string
	}
	var jobs []job
	taggers := make([][]string, len(nodes))
	for n, c := range nodes {
		var provs []string
		for i := 0; i < sh.ProvidersPerNode; i++ {
			id, err := c.RegisterProvider(ctx, fmt.Sprintf("provider-%d-%d", n, i))
			if err != nil {
				return nil, fmt.Errorf("register provider: %w", err)
			}
			provs = append(provs, id)
		}
		names := make([]string, sh.TaggersPerNode)
		for i := range names {
			names[i] = fmt.Sprintf("tagger-%d-%d", n, i)
		}
		resp, err := c.RegisterTaggers(ctx, names)
		if err != nil {
			return nil, fmt.Errorf("register taggers: %w", err)
		}
		for _, it := range resp.Results {
			if it.Error != nil {
				return nil, fmt.Errorf("register tagger: %s", it.Error.Message)
			}
			taggers[n] = append(taggers[n], it.ID)
		}
		for j := 0; j < sh.ProjectsPerNode; j++ {
			req := client.CreateProjectReq{
				ProviderID: provs[j%len(provs)],
				Name:       fmt.Sprintf("project-%d-%d", n, j),
				Budget:     1 << 30, PayPerTask: 0.05, Strategy: "fp-mu",
			}
			var ids []string
			for k := 0; k < sh.ResourcesPerProj; k++ {
				// Resource IDs are global store keys, so every project
				// uploads its own.
				id := fmt.Sprintf("n%dp%03dr%04d", n, j, k)
				ids = append(ids, id)
				req.Resources = append(req.Resources, client.UploadedResource{
					ID: id, Kind: "url", Name: resourceName(r, id, w.Vocab, sh.NameBytes),
				})
			}
			jobs = append(jobs, job{node: n, req: req, res: ids})
		}
	}
	w.Projects = make([]*project, len(jobs))
	err := parallel(workers, len(jobs), func(i int) error {
		j := jobs[i]
		id, err := nodes[j.node].CreateProject(ctx, j.req)
		if err != nil {
			return fmt.Errorf("create project: %w", err)
		}
		p := &project{ID: id, Node: j.node, Res: j.res, Taggers: taggers[j.node],
			resIdx: make(map[string]int, len(j.res)),
			acked:  make([]atomic.Int64, len(j.res)), ackedOK: make([]atomic.Int64, len(j.res))}
		for k, rid := range j.res {
			p.resIdx[rid] = k
		}
		w.Projects[i] = p
		return nil
	})
	return w, err
}
