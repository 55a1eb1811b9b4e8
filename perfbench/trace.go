package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one timed call across a layer boundary. Spans of one block
// or transaction share its Key; Parent links a call to the span that
// caused it (0 for a root).
type Span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Key    string `json:"key,omitempty"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
}

// Tracer keeps spans in memory while a traced run measures and writes
// them out when it ends. A nil or disabled Tracer records nothing, so
// untraced runs pay one branch per span site.
type Tracer struct {
	epoch time.Time
	on    atomic.Bool
	next  atomic.Uint64

	mu    sync.Mutex
	spans []Span
}

// NewTracer returns a tracer, enabled.
func NewTracer() *Tracer {
	t := &Tracer{epoch: time.Now()}
	t.on.Store(true)
	return t
}

// SetEnabled switches recording on or off; runs that measure tracing
// overhead alternate traced and untraced stretches of the same work.
func (t *Tracer) SetEnabled(on bool) {
	if t != nil {
		t.on.Store(on)
	}
}

// Enabled reports whether spans are being recorded.
func (t *Tracer) Enabled() bool { return t != nil && t.on.Load() }

// Open is a span that has begun. The zero Open (from a disabled
// tracer) ignores End.
type Open struct {
	t      *Tracer
	id     uint64
	parent uint64
	name   string
	key    string
	start  time.Time
}

// Begin starts a span now.
func (t *Tracer) Begin(name, key string, parent uint64) Open {
	return t.BeginAt(name, key, parent, time.Now())
}

// BeginAt starts a span at an earlier instant, such as an open-loop
// send's due time.
func (t *Tracer) BeginAt(name, key string, parent uint64, at time.Time) Open {
	if !t.Enabled() {
		return Open{}
	}
	return Open{t: t, id: t.next.Add(1), parent: parent, name: name, key: key, start: at}
}

// ID returns the span's id, for children to name as their parent (0
// when not recording).
func (o Open) ID() uint64 { return o.id }

// End records the span as ending now.
func (o Open) End() { o.EndAt(time.Now()) }

// EndAt records the span as ending at the given instant.
func (o Open) EndAt(at time.Time) {
	if o.t == nil {
		return
	}
	s := Span{ID: o.id, Parent: o.parent, Name: o.name, Key: o.key,
		Start: int64(o.start.Sub(o.t.epoch)), End: int64(at.Sub(o.t.epoch))}
	o.t.mu.Lock()
	o.t.spans = append(o.t.spans, s)
	o.t.mu.Unlock()
}

// Spans returns a copy of the recorded spans.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// WriteFile writes the spans as JSON lines.
func (t *Tracer) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.Spans() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LayerTime aggregates the spans of one name.
type LayerTime struct {
	Count int
	Total time.Duration // sum of span durations
	Self  time.Duration // Total minus the part child spans cover
	Durs  []float64     // each span's duration in ms, unsorted
}

// SelfTimes aggregates spans by name. A span's self time is its
// duration minus the union of its children's intervals clipped to it,
// so overlapping or concurrent children are not counted twice.
func SelfTimes(spans []Span) map[string]*LayerTime {
	children := make(map[uint64][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]*LayerTime)
	for _, s := range spans {
		lt := out[s.Name]
		if lt == nil {
			lt = &LayerTime{}
			out[s.Name] = lt
		}
		d := time.Duration(s.End - s.Start)
		lt.Count++
		lt.Total += d
		lt.Self += d - covered(s, children[s.ID])
		lt.Durs = append(lt.Durs, float64(d)/float64(time.Millisecond))
	}
	return out
}

// covered returns how much of parent's interval the union of kids
// covers.
func covered(parent Span, kids []Span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, x := range iv {
		if i == 0 || x[0] > curHi {
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
			continue
		}
		curHi = max(curHi, x[1])
	}
	total += curHi - curLo
	return time.Duration(total)
}
