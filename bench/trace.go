package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call the bench made into a layer's public function.
// Spans of one request share Req; Parent is the ID of the span that caused
// this one (0 for a root). Times are nanoseconds since the recorder began.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends; how often each
// boundary was crossed is the number of spans of its name. A nil *recorder
// records nothing, so the untraced run pays one nil check per boundary.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), spans: make([]span, 0, 1<<18)}
}

// start opens a span and returns its ID.
func (r *recorder) start(name string, parent int32, req int64) int32 {
	if r == nil {
		return 0
	}
	now := int64(time.Since(r.epoch))
	r.mu.Lock()
	id := int32(len(r.spans) + 1)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: now})
	r.mu.Unlock()
	return id
}

// end closes the span.
func (r *recorder) end(id int32) {
	if r == nil {
		return
	}
	now := int64(time.Since(r.epoch))
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// layerTime aggregates the spans of one name.
type layerTime struct {
	Name    string  `json:"name"`
	Count   int64   `json:"count"`
	TotalNs float64 `json:"total_ns"`
	SelfNs  float64 `json:"self_ns"`
}

// selfTimes computes, per span name, total time and self time: a span's
// duration minus the part of its interval that its child spans cover
// (overlapping children, as in a fan-out, are counted once).
func selfTimes(spans []span) []layerTime {
	children := make(map[int32][]int, len(spans))
	for i, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	agg := make(map[string]*layerTime)
	for _, s := range spans {
		lt := agg[s.Name]
		if lt == nil {
			lt = &layerTime{Name: s.Name}
			agg[s.Name] = lt
		}
		lt.Count++
		lt.TotalNs += float64(s.End - s.Start)
		lt.SelfNs += float64(s.End - s.Start - covered(s, spans, children[s.ID]))
	}
	out := make([]layerTime, 0, len(agg))
	for _, lt := range agg {
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// covered is the length of the union of the child intervals, clipped to
// the parent's own interval.
func covered(parent span, spans []span, kids []int) int64 {
	sort.Slice(kids, func(i, j int) bool { return spans[kids[i]].Start < spans[kids[j]].Start })
	var total int64
	cursor := parent.Start
	for _, k := range kids {
		lo, hi := spans[k].Start, spans[k].End
		if lo < cursor {
			lo = cursor
		}
		if hi > parent.End {
			hi = parent.End
		}
		if hi > lo {
			total += hi - lo
			cursor = hi
		}
	}
	return total
}

// maxSpansWritten bounds the trace file; the per-layer table in it is
// always computed from every span.
const maxSpansWritten = 50000

// traceFile is what the trace pass leaves in out/trace-<workload>.json.
type traceFile struct {
	Env          map[string]any     `json:"env"`
	Metrics      map[string]float64 `json:"metrics"`
	Layers       []layerTime        `json:"layers"`
	SpansTotal   int                `json:"spans_total"`
	SpansWritten int                `json:"spans_written"`
	Spans        []span             `json:"spans"`
}

// write dumps the recorder to dir/trace-<workload>.json.
func (r *recorder) write(dir, workload string, env map[string]any, metrics map[string]float64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	tf := traceFile{
		Env:        env,
		Metrics:    metrics,
		Layers:     selfTimes(r.spans),
		SpansTotal: len(r.spans),
		Spans:      r.spans,
	}
	if len(tf.Spans) > maxSpansWritten {
		tf.Spans = tf.Spans[:maxSpansWritten]
	}
	tf.SpansWritten = len(tf.Spans)
	data, err := json.Marshal(tf)
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	return path, os.WriteFile(path, data, 0o644)
}
