package main

import (
	"testing"
	"time"
)

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},  // overlaps a
		{ID: 4, Parent: 1, Name: "b", Start: 90, End: 120}, // runs past the root
		{ID: 5, Parent: 2, Name: "c", Start: 15, End: 20},
	}
	st := SelfTimes(spans)
	// root: children cover [10,60] and [90,100] = 60.
	if got := st["root"].Self; got != 40 {
		t.Fatalf("root self = %v, want 40ns", got)
	}
	if got := st["a"].Self; got != 25 {
		t.Fatalf("a self = %v, want 25ns", got)
	}
	if b := st["b"]; b.Count != 2 || b.Total != 60 || b.Self != 60 {
		t.Fatalf("b = %+v, want 2 spans, total 60ns, self 60ns", *b)
	}
}

func TestDisabledTracerRecordsNothing(t *testing.T) {
	var nilT *Tracer
	nilT.Begin("x", "", 0).End()
	tr := NewTracer()
	tr.SetEnabled(false)
	o := tr.Begin("x", "", 0)
	o.End()
	if o.ID() != 0 || len(tr.Spans()) != 0 {
		t.Fatal("disabled tracer recorded a span")
	}
	tr.SetEnabled(true)
	root := tr.Begin("root", "k", 0)
	child := tr.BeginAt("child", "k", root.ID(), time.Now())
	child.End()
	root.End()
	sp := tr.Spans()
	if len(sp) != 2 || sp[0].Parent != sp[1].ID || sp[0].Key != "k" {
		t.Fatalf("spans = %+v", sp)
	}
}
