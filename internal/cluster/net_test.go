package cluster

import (
	"container/heap"
	"testing"

	"specpersist/internal/chaos"
)

// TestMsgHeapTieBreak pins the delivery total order the chaos fabric
// depends on: equal delivery cycles break ties on the send sequence, so
// reordered and duplicated messages still drain in one deterministic
// order.
func TestMsgHeapTieBreak(t *testing.T) {
	var h msgHeap
	// Push in scrambled order: three messages at cycle 100 with distinct
	// seqs, plus earlier and later cycles.
	for _, m := range []*message{
		{at: 100, seq: 7},
		{at: 200, seq: 1},
		{at: 100, seq: 3},
		{at: 50, seq: 9},
		{at: 100, seq: 5},
	} {
		heap.Push(&h, m)
	}
	want := []struct{ at, seq uint64 }{
		{50, 9}, {100, 3}, {100, 5}, {100, 7}, {200, 1},
	}
	for i, w := range want {
		m := heap.Pop(&h).(*message)
		if m.at != w.at || m.seq != w.seq {
			t.Fatalf("pop %d: got (at=%d, seq=%d), want (at=%d, seq=%d)", i, m.at, m.seq, w.at, w.seq)
		}
	}
}

// TestOneWayDeterminism: two independently constructed networks with the
// same seed assign identical latencies, and draining them after identical
// send schedules yields identical (at, seq) delivery orders.
func TestOneWayDeterminism(t *testing.T) {
	a := newNetwork(42, 800, 0.3, nil)
	b := newNetwork(42, 800, 0.3, nil)
	for seq := uint64(0); seq < 1000; seq++ {
		if la, lb := a.oneWay(seq), b.oneWay(seq); la != lb {
			t.Fatalf("seq %d: latencies diverge: %d vs %d", seq, la, lb)
		}
		if l := a.oneWay(seq); l < 1 {
			t.Fatalf("seq %d: latency %d below floor", seq, l)
		}
	}
	// Latencies actually spread (jitter is live).
	seen := map[uint64]bool{}
	for seq := uint64(0); seq < 100; seq++ {
		seen[a.oneWay(seq)] = true
	}
	if len(seen) < 10 {
		t.Fatalf("only %d distinct latencies over 100 messages with jitter 0.3", len(seen))
	}
	// Identical send schedules drain identically.
	for i := 0; i < 200; i++ {
		sentAt := uint64(i * 13)
		a.send(&message{from: i % 3, to: (i + 1) % 3}, sentAt)
		b.send(&message{from: i % 3, to: (i + 1) % 3}, sentAt)
	}
	for len(a.q) > 0 || len(b.q) > 0 {
		if len(a.q) == 0 || len(b.q) == 0 {
			t.Fatal("networks drained different message counts")
		}
		ma, mb := a.pop(), b.pop()
		if ma.at != mb.at || ma.seq != mb.seq {
			t.Fatalf("delivery diverged: (at=%d, seq=%d) vs (at=%d, seq=%d)", ma.at, ma.seq, mb.at, mb.seq)
		}
	}
	// A different seed produces a different latency stream.
	c := newNetwork(43, 800, 0.3, nil)
	diff := 0
	for seq := uint64(0); seq < 100; seq++ {
		if a.oneWay(seq) != c.oneWay(seq) {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("different seeds produced identical latency streams")
	}
}

// TestNetworkChaosFates: the chaos path drops, duplicates, delays and
// reorders deterministically — two same-plan networks misbehave
// identically — and the counters account for every sent message.
func TestNetworkChaosFates(t *testing.T) {
	plan := &chaos.Plan{Seed: 9, Drop: 0.2, Dup: 0.2, Delay: 0.1, DelayMult: 10, Reorder: 0.2}
	a := newNetwork(42, 800, 0.3, plan)
	b := newNetwork(42, 800, 0.3, plan)
	const n = 2000
	for i := 0; i < n; i++ {
		a.send(&message{from: i % 4, to: (i + 1) % 4}, uint64(i))
		b.send(&message{from: i % 4, to: (i + 1) % 4}, uint64(i))
	}
	if a.chDropped == 0 || a.chDupped == 0 || a.chDelayed == 0 || a.chReordered == 0 {
		t.Fatalf("some fates never fired: drop=%d dup=%d delay=%d reorder=%d",
			a.chDropped, a.chDupped, a.chDelayed, a.chReordered)
	}
	if got := uint64(len(a.q)); got != n-a.chDropped+a.chDupped {
		t.Fatalf("queue holds %d messages, want %d sent - %d dropped + %d dupped",
			got, n, a.chDropped, a.chDupped)
	}
	if a.sent != n {
		t.Fatalf("sent counter %d, want %d (drops still count as sends)", a.sent, n)
	}
	for len(a.q) > 0 {
		ma, mb := a.pop(), b.pop()
		if ma.at != mb.at || ma.seq != mb.seq || ma.from != mb.from {
			t.Fatal("same-plan networks misbehaved differently")
		}
	}
	if len(b.q) != 0 {
		t.Fatal("same-plan networks dropped different messages")
	}
}

// TestBeatRoutesLikeSend: a beat draws the fate, latency and sequence
// numbers a message sent in its place would have drawn, so folding beats
// out of the heap leaves every other message's fate stream unchanged.
func TestBeatRoutesLikeSend(t *testing.T) {
	plan := &chaos.Plan{Seed: 5, Drop: 0.1, Dup: 0.2, Delay: 0.1, DelayMult: 10, Reorder: 0.2,
		Partitions: []chaos.Partition{{From: 300, To: 600, Group: []int{0}}},
		Grays:      []chaos.Gray{{From: 900, To: 1400, Node: 2, Slow: 6}}}
	a := newNetwork(42, 800, 0.3, plan)
	b := newNetwork(42, 800, 0.3, plan)
	var latest, nbeats uint64
	for i := 0; i < 2000; i++ {
		from, to, at := i%3, (i+1)%3, uint64(i)
		if i%2 == 0 {
			a.send(&message{from: from, to: to}, at)
			b.send(&message{from: from, to: to}, at)
			continue
		}
		a.send(&message{from: from, to: to}, at)
		b.beat(from, to, at)
		nbeats++
	}
	if a.seq != b.seq || a.chDropped != b.chDropped || a.chCut != b.chCut ||
		a.chDupped != b.chDupped || a.chDelayed != b.chDelayed || a.chReordered != b.chReordered {
		t.Fatalf("beats and messages drew different fates:\n%+v\n%+v", a, b)
	}
	if b.sent != a.sent-nbeats {
		t.Fatalf("%d messages counted sent beside %d beats, want %d: a beat is not a message", b.sent, nbeats, a.sent-nbeats)
	}
	// Every message b sent pops at a's cycle and sequence; every beat
	// stands for one of a's messages, in send order.
	beats := b.beats
	for len(a.q) > 0 {
		ma := a.pop()
		if len(b.q) > 0 && b.q[0].seq == ma.seq {
			if mb := b.pop(); mb.at != ma.at {
				t.Fatalf("message %d lands at %d, want %d", ma.seq, mb.at, ma.at)
			}
			continue
		}
		found := false
		for i, bt := range beats {
			if bt.at == ma.at && bt.from == ma.from && bt.to == ma.to {
				beats = append(beats[:i:i], beats[i+1:]...)
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("message %d (%d->%d at %d) has no beat or message in b", ma.seq, ma.from, ma.to, ma.at)
		}
	}
	if len(b.q) != 0 || len(beats) != 0 {
		t.Fatalf("b holds %d messages and %d beats a does not", len(b.q), len(beats))
	}
	for _, bt := range b.beats {
		latest = max(latest, bt.at)
	}
	if b.latestBeat != latest {
		t.Fatalf("latestBeat %d, want %d", b.latestBeat, latest)
	}
}

// TestNetworkPartitionAndGray: partition windows cut exactly the cross-cut
// messages inside the window, and gray windows stretch latency without
// losing anything.
func TestNetworkPartitionAndGray(t *testing.T) {
	plan := &chaos.Plan{
		Partitions: []chaos.Partition{{From: 100, To: 200, Group: []int{0}}},
		Grays:      []chaos.Gray{{From: 1000, To: 2000, Node: 1, Slow: 100}},
	}
	n := newNetwork(7, 800, 0, plan)

	n.send(&message{from: 0, to: 1}, 150) // inside window, across the cut: lost
	if n.chCut != 1 || len(n.q) != 0 {
		t.Fatalf("cross-cut message survived: cut=%d queued=%d", n.chCut, len(n.q))
	}
	n.send(&message{from: 1, to: 2}, 150) // inside window, both outside group: delivered
	n.send(&message{from: 0, to: 1}, 250) // after window: delivered
	if n.chCut != 1 || len(n.q) != 2 {
		t.Fatalf("kind messages were cut: cut=%d queued=%d", n.chCut, len(n.q))
	}

	// Gray: the fabric is jitterless (one-way = RTT/2 = 400 exactly), so a
	// message touching the gray node takes exactly 100x as long.
	g := newNetwork(7, 800, 0, plan)
	g.send(&message{from: 1, to: 2}, 1500) // gray source
	g.send(&message{from: 0, to: 2}, 1500) // kind link
	kind := g.pop()
	slow := g.pop()
	if kind.at != 1500+400 {
		t.Fatalf("kind link delivered at %d, want %d", kind.at, 1500+400)
	}
	if slow.at != 1500+40000 {
		t.Fatalf("gray link delivered at %d, want %d", slow.at, 1500+40000)
	}
}
