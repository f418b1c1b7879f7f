package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// span is one timed interval at a layer boundary. Spans are recorded from the
// driver goroutine only (the driver is single-threaded; the program's own
// parallelism happens inside a span), kept in memory, and written out when
// the pass ends. Name is "<layer>.<what>"; Parent indexes tracer.spans, -1
// for a root.
type span struct {
	Name    string
	StartNS int64
	EndNS   int64
	Parent  int
	World   int
}

func (s span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i >= 0 {
		return s.Name[:i]
	}
	return s.Name
}

func (s span) seconds() float64 { return float64(s.EndNS-s.StartNS) / 1e9 }

// tracer collects the spans and per-layer counts of one traced pass. The nil
// tracer is tracing off: begin and end are no-ops, so workload code calls
// them unconditionally and the untraced pass pays one nil check per boundary.
type tracer struct {
	workload string
	t0       time.Time
	spans    []span
	// counts holds each layer's counted-seam totals and batch-probe costs,
	// keyed layer → short name (the per-layer metric is "<layer>.<name>").
	counts map[string]map[string]float64
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, t0: time.Now(), counts: map[string]map[string]float64{}}
}

// begin opens a span and returns its id, or -1 when tracing is off.
func (t *tracer) begin(name string, parent, world int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, StartNS: int64(time.Since(t.t0)), Parent: parent, World: world})
	return len(t.spans) - 1
}

// end closes a span opened by begin.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].EndNS = int64(time.Since(t.t0))
}

// set records one per-layer metric by its full name "<layer>.<name>".
func (t *tracer) set(metric string, v float64) {
	if t == nil {
		return
	}
	i := strings.IndexByte(metric, '.')
	layer, name := metric[:i], metric[i+1:]
	if t.counts[layer] == nil {
		t.counts[layer] = map[string]float64{}
	}
	t.counts[layer][name] = v
}

// get reads a metric back (0 when never set).
func (t *tracer) get(metric string) float64 {
	i := strings.IndexByte(metric, '.')
	return t.counts[metric[:i]][metric[i+1:]]
}

// sum returns the total duration in seconds of every span with the name.
func (t *tracer) sum(name string) float64 {
	total := 0.0
	for _, s := range t.spans {
		if s.Name == name {
			total += s.seconds()
		}
	}
	return total
}

// selfTimes returns each layer's self time in seconds: the duration of its
// spans minus the part of each interval that the span's direct children
// cover. Children may overlap one another (concurrent work under one
// parent); the covered part is the union of their intervals clipped to the
// parent, so overlap is subtracted once. Only the subtree under the span
// root counts (root itself included); -1 takes every span.
func selfTimes(spans []span, root int) map[string]float64 {
	children := make(map[int][]int)
	under := make([]bool, len(spans)) // parents precede children
	for i, s := range spans {
		under[i] = root < 0 || i == root || (s.Parent >= 0 && under[s.Parent])
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := map[string]float64{}
	for i, s := range spans {
		if !under[i] {
			continue
		}
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].StartNS < spans[kids[b]].StartNS })
		covered, edge := int64(0), s.StartNS
		for _, k := range kids {
			lo, hi := spans[k].StartNS, spans[k].EndNS
			if lo < edge {
				lo = edge
			}
			if hi > s.EndNS {
				hi = s.EndNS
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		out[s.layer()] += float64(s.EndNS-s.StartNS-covered) / 1e9
	}
	return out
}

// spanRecord and countsRecord are the two JSONL record shapes of a trace
// file (README.md, "Reading a trace").
type spanRecord struct {
	Name     string `json:"name"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
	Parent   int    `json:"parent"`
	Workload string `json:"workload"`
	World    int    `json:"world"`
}

type countsRecord struct {
	Layer    string             `json:"layer"`
	Workload string             `json:"workload"`
	Counts   map[string]float64 `json:"counts"`
}

// write emits one record per span, in recording order (so a record's line
// number minus one is the id its children name as parent), followed by one
// counts record per layer in name order.
func (t *tracer) write(path string) (err error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		rec := spanRecord{Name: s.Name, StartNS: s.StartNS, EndNS: s.EndNS, Parent: s.Parent, Workload: t.workload, World: s.World}
		if err := enc.Encode(rec); err != nil {
			return fmt.Errorf("trace: encode span: %w", err)
		}
	}
	layers := make([]string, 0, len(t.counts))
	for l := range t.counts {
		layers = append(layers, l)
	}
	sort.Strings(layers)
	for _, l := range layers {
		if err := enc.Encode(countsRecord{Layer: l, Workload: t.workload, Counts: t.counts[l]}); err != nil {
			return fmt.Errorf("trace: encode counts: %w", err)
		}
	}
	return w.Flush()
}
