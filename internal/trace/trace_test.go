package trace

import (
	"context"
	"testing"
)

func TestSampleDeterministicAcrossSeeds(t *testing.T) {
	draw := func(seed int64) []bool {
		c := NewCollector(0.25, seed, 64)
		out := make([]bool, 200)
		for i := range out {
			_, out[i] = c.Sample()
		}
		return out
	}
	a, b := draw(7), draw(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
	hits := 0
	for _, v := range a {
		if v {
			hits++
		}
	}
	if hits == 0 || hits == len(a) {
		t.Fatalf("rate 0.25 sampled %d/%d", hits, len(a))
	}
}

func TestSpanTreeAssembly(t *testing.T) {
	c := NewCollector(1, 1, 64)
	sc, ok := c.Sample()
	if !ok {
		t.Fatal("rate 1 did not sample")
	}
	root := c.Root(sc, "cmd:SET", "n1")
	c.Emit(sc, "queue_wait", "n1", -1, root.Start, root.Start+10)
	appendID := c.NewSpanID()
	c.EmitWithID(appendID, sc, "append", "n1", root.Start+10, root.Start+50)
	parent := SpanContext{TraceID: sc.TraceID, SpanID: appendID}
	c.Emit(parent, "az_ack", "az-1", 1, root.Start+12, root.Start+30)
	c.Emit(parent, "replica_apply", "n2", -1, root.Start+60, root.Start+70)
	c.Finish(root)

	spans := c.Trace(sc.TraceID)
	if len(spans) != 5 {
		t.Fatalf("got %d spans, want 5", len(spans))
	}
	ids := map[uint64]bool{}
	roots := 0
	for _, s := range spans {
		ids[s.SpanID] = true
		if s.ParentID == 0 {
			roots++
		}
	}
	if roots != 1 {
		t.Fatalf("roots = %d, want 1", roots)
	}
	for _, s := range spans {
		if s.ParentID != 0 && !ids[s.ParentID] {
			t.Fatalf("span %q parent %d not in trace", s.Name, s.ParentID)
		}
	}
	recent := c.RecentTraces(4)
	if len(recent) != 1 || recent[0] != sc.TraceID {
		t.Fatalf("RecentTraces = %v, want [%d]", recent, sc.TraceID)
	}
	c.Reset()
	if got := c.Trace(sc.TraceID); got != nil {
		t.Fatalf("Reset left %d spans", len(got))
	}
}

func TestContextRoundTrip(t *testing.T) {
	if _, ok := FromContext(context.Background()); ok {
		t.Fatal("empty context carried a span")
	}
	sc := SpanContext{TraceID: 9, SpanID: 10}
	got, ok := FromContext(NewContext(context.Background(), sc))
	if !ok || got != sc {
		t.Fatalf("round trip = %+v, %v", got, ok)
	}
}
