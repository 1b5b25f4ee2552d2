package obs

import (
	"reflect"
	"strings"
	"testing"
)

func TestRegistryCountersAndFuncs(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("a.count")
	c.Add(1)
	c.Add(4)
	var live uint64 = 7
	r.RegisterFunc("b.live", func() uint64 { return live })

	s := r.Snapshot()
	if s["a.count"] != 5 || s["b.live"] != 7 {
		t.Fatalf("snapshot = %v", s)
	}
	live = 9
	if got := r.Snapshot()["b.live"]; got != 9 {
		t.Fatalf("func metric not read live: got %d", got)
	}
	if got := r.Keys(); !reflect.DeepEqual(got, []string{"a.count", "b.live"}) {
		t.Fatalf("Keys() = %v", got)
	}
}

func TestRegistryDuplicatePanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x")
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	r.Counter("x")
}

func TestRegistryNilSafe(t *testing.T) {
	var r *Registry
	r.RegisterFunc("x", func() uint64 { return 1 }) // must not panic
	if len(r.Snapshot()) != 0 || r.Keys() != nil {
		t.Fatal("nil registry should snapshot empty")
	}
}

func TestSnapshotKeysSorted(t *testing.T) {
	s := Snapshot{"z": 1, "a": 2, "m": 3}
	if got := s.Keys(); !reflect.DeepEqual(got, []string{"a", "m", "z"}) {
		t.Fatalf("Keys() = %v", got)
	}
}

func TestTimelineNilSafe(t *testing.T) {
	var tl *Timeline
	tl.Span("tr", "x", 1, 2)
	tl.Instant("tr", "x", 1)
	tl.Count("tr", "x", 1, 2)
	if tl.Enabled() || tl.Len() != 0 || tl.Dropped() != 0 || tl.Events() != nil {
		t.Fatal("nil timeline should record nothing")
	}
	if err := tl.WriteTrace(&strings.Builder{}); err != nil {
		t.Fatalf("nil WriteTrace: %v", err)
	}
}

func TestTimelineRingOverwrite(t *testing.T) {
	tl := NewTimeline(3)
	for i := uint64(0); i < 5; i++ {
		tl.Instant(TrackRetire, "e", i)
	}
	if tl.Len() != 3 || tl.Dropped() != 2 {
		t.Fatalf("len=%d dropped=%d", tl.Len(), tl.Dropped())
	}
	ev := tl.Events()
	if ev[0].Start != 2 || ev[2].Start != 4 {
		t.Fatalf("ring order wrong: %+v", ev)
	}
}

func TestTimelineSpanClampsEnd(t *testing.T) {
	tl := NewTimeline(4)
	tl.Span("t", "x", 10, 5)
	if e := tl.Events()[0]; e.End != 10 {
		t.Fatalf("End = %d, want clamped to Start", e.End)
	}
}

func TestStallReport(t *testing.T) {
	s := Snapshot{
		KeyCycles:       1000,
		KeyStallFence:   400,
		KeyStallSSBFull: 100,
	}
	lines := StallReport(s)
	if len(lines) != 3 {
		t.Fatalf("lines = %+v", lines)
	}
	if lines[0].Cause != "fence (persist barrier)" || lines[0].Cycles != 400 || lines[0].Frac != 0.4 {
		t.Fatalf("fence line = %+v", lines[0])
	}
	last := lines[len(lines)-1]
	if last.Cause != "front-end / execution" || last.Cycles != 500 {
		t.Fatalf("remainder line = %+v", last)
	}
	if StallReport(Snapshot{}) != nil {
		t.Fatal("empty snapshot should report nil")
	}
	txt := FormatStallReport(s)
	if !strings.Contains(txt, "fence (persist barrier)") || !strings.Contains(txt, "40.0%") {
		t.Fatalf("formatted report:\n%s", txt)
	}
}

// Counter is a monotonically increasing uint64 metric owned by the
// component that registered it. The simulator is single-threaded per
// machine instance, so Counter performs no synchronization; one Registry
// (and everything registered in it) must not be shared across concurrently
// simulated machines.
type Counter struct {
	v uint64
}

// Add adds n.
func (c *Counter) Add(n uint64) { c.v += n }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v }

// Counter registers and returns an owned counter under the given name.
func (r *Registry) Counter(name string) *Counter {
	c := &Counter{}
	r.RegisterFunc(name, c.Value)
	return c
}
