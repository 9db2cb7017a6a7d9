package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// scrape is one Prometheus text exposition, keyed by the full series
// ("name{labels}" or bare "name") as it appears on the wire.
type scrape map[string]float64

// parseExposition reads the text format served by itagd's /metrics:
// comment lines are skipped and each sample line is "series value".
func parseExposition(r io.Reader) (scrape, error) {
	s := scrape{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i <= 0 {
			return nil, fmt.Errorf("malformed sample line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("sample %q: %w", line, err)
		}
		s[strings.TrimSpace(line[:i])] = v
	}
	return s, sc.Err()
}

// family sums every series of a metric whose labels contain all of the
// given `key="value"` fragments.
func (s scrape) family(name string, labels ...string) float64 {
	total := 0.0
	for series, v := range s {
		if seriesName(series) != name || !hasLabels(series, labels) {
			continue
		}
		total += v
	}
	return total
}

// max is the largest sample of a metric (for gauges such as replica lag).
func (s scrape) max(name string) float64 {
	m := 0.0
	for series, v := range s {
		if seriesName(series) == name && v > m {
			m = v
		}
	}
	return m
}

func seriesName(series string) string {
	if i := strings.IndexByte(series, '{'); i >= 0 {
		return series[:i]
	}
	return series
}

func hasLabels(series string, labels []string) bool {
	for _, l := range labels {
		if !strings.Contains(series, l) {
			return false
		}
	}
	return true
}

// delta is after minus before, series by series, summed over a set of
// scrapes (one per node).
func delta(before, after []scrape) scrape {
	d := scrape{}
	for i := range after {
		for k, v := range after[i] {
			d[k] += v - before[i][k]
		}
	}
	return d
}

func fetchMetrics(hc *http.Client, base string) (scrape, error) {
	resp, err := hc.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s/metrics: %s", base, resp.Status)
	}
	return parseExposition(resp.Body)
}
