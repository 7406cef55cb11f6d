package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"faultyrank/internal/telemetry"
)

// span is one recorded layer call. Spans of one traced walk share Walk;
// Parent is the ID of the enclosing span (0 for a walk's top level).
type span struct {
	Walk   int     `json:"walk"`
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
	Self   float64 `json:"self_s"`
	// Stage marks the spans whose durations add up to one check; the
	// others are extra probes (a second Detect, the checker's own
	// re-run of build and rank) that a check does not repeat.
	Stage bool `json:"stage"`
}

// tracer keeps the spans of a traced run in memory; write dumps them
// when the run ends.
type tracer struct {
	epoch     time.Time
	spans     []span
	walk      int
	walkStart time.Time
	stack     []int // indexes into spans of the open spans
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() float64 { return time.Since(t.epoch).Seconds() }

func (t *tracer) startWalk() {
	t.walk++
	t.walkStart = time.Now()
	t.stack = t.stack[:0]
}

// endWalk returns the walk's wall time, the summed duration of its
// top-level spans and the summed duration of its stage spans.
func (t *tracer) endWalk() (wall, top, stage float64) {
	wall = time.Since(t.walkStart).Seconds()
	for _, s := range t.spans {
		if s.Walk != t.walk {
			continue
		}
		if s.Parent == 0 {
			top += s.End - s.Start
		}
		if s.Stage {
			stage += s.End - s.Start
		}
	}
	return wall, top, stage
}

// do runs fn under a span and returns the span's duration in seconds.
// Spans opened inside fn become its children.
func (t *tracer) do(name string, stage bool, fn func() error) (float64, error) {
	parent := 0
	if len(t.stack) > 0 {
		parent = t.spans[t.stack[len(t.stack)-1]].ID
	}
	t.spans = append(t.spans, span{
		Walk: t.walk, ID: len(t.spans) + 1, Parent: parent, Name: name, Stage: stage,
	})
	i := len(t.spans) - 1
	t.stack = append(t.stack, i)
	t.spans[i].Start = t.now()
	err := fn()
	t.spans[i].End = t.now()
	t.stack = t.stack[:len(t.stack)-1]
	return t.spans[i].End - t.spans[i].Start, err
}

// phases records the checker's own phase tree (Result.Phases) as child
// spans of the most recently closed span named parent, placed by the
// tree's start offsets. Nodes named in stage are marked as stages.
func (t *tracer) phases(parent string, root *telemetry.SpanNode, stage map[string]bool) {
	if root == nil {
		return
	}
	pi := -1
	for i := len(t.spans) - 1; i >= 0 && t.spans[i].Walk == t.walk; i-- {
		if t.spans[i].Name == parent {
			pi = i
			break
		}
	}
	if pi < 0 {
		return
	}
	// Offsets in the tree are relative to its root, which started with
	// the enclosing span.
	base := t.spans[pi].Start
	var add func(n *telemetry.SpanNode, parentID int)
	add = func(n *telemetry.SpanNode, parentID int) {
		for i := range n.Children {
			c := &n.Children[i]
			start := base + c.StartOffset.Seconds()
			t.spans = append(t.spans, span{
				Walk: t.walk, ID: len(t.spans) + 1, Parent: parentID,
				Name:  "checker." + c.Name,
				Start: start, End: start + c.Duration.Seconds(),
				Stage: stage[c.Name],
			})
			add(c, len(t.spans))
		}
	}
	add(root, t.spans[pi].ID)
}

// write computes every span's self time (its duration minus the part
// its children cover) and dumps the spans as JSON under dir.
func (t *tracer) write(dir, workload string, seed int64) (string, error) {
	child := make(map[int]float64)
	for _, s := range t.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	for i := range t.spans {
		s := &t.spans[i]
		s.Self = s.End - s.Start - child[s.ID]
	}
	b, err := json.MarshalIndent(t.spans, "", " ")
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("trace-%s-seed%d.json", workload, seed))
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return "", fmt.Errorf("writing trace: %w", err)
	}
	return path, nil
}
