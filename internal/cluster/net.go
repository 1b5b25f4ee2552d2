// Seeded inter-node network model. Every message is assigned a one-way
// latency of RTT/2 scaled by a deterministic per-message jitter factor in
// [1-J, 1+J), drawn from splitmix.Mix(seed + message sequence number) — no
// shared rand.Source whose draw order could depend on scheduling. Delivery
// order is a total order on (deliver-at cycle, send sequence), so two runs
// of one configuration drain the network identically, byte for byte, at
// any sweep worker count.
//
// An optional chaos.Plan layers deterministic misbehaviour on top: each
// message's fate (drop, duplicate, delay spike, reorder) is a pure function
// of (plan seed, message sequence), partitions cut links for cycle windows,
// and gray windows multiply link latency. The kind path (nil or inert plan)
// is byte-identical to the pre-chaos fabric.
//
// Liveness beats draw their sequence numbers, fates and latencies exactly
// as messages do (route), but carry nothing a node must react to on
// arrival: the fleet folds their arrival cycles into the lease state at
// its next tick. So a beat is a value in a slice, never a heap entry.
package cluster

import (
	"container/heap"

	"specpersist/internal/chaos"
	"specpersist/internal/splitmix"
)

// msgKind discriminates network payloads.
type msgKind int

const (
	msgReplicate msgKind = iota // primary -> replica: one sequenced update
	msgAck                      // replica -> collector: durable apply of one request
	msgFetch                    // repairing node -> source owner: a batch request
	msgFetchResp                // source owner -> repairing node: the batch
)

// message is one in-flight network packet.
type message struct {
	at   uint64 // delivery cycle
	seq  uint64 // global send order (tie-break and jitter seed)
	from int
	to   int
	kind msgKind

	item  item   // msgReplicate
	reqID int    // msgAck
	rid   int    // msgFetch
	lo    uint64 // msgFetch: first sequence of the batch
	n     int    // msgFetch: batch size requested
	items []item // msgFetchResp
}

// msgHeap orders messages by (delivery cycle, send sequence).
type msgHeap []*message

func (h msgHeap) Len() int { return len(h) }
func (h msgHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h msgHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *msgHeap) Push(x any)   { *h = append(*h, x.(*message)) }
func (h *msgHeap) Pop() any     { old := *h; n := len(old); m := old[n-1]; *h = old[:n-1]; return m }

// beat is one liveness beat in flight: it lands at cycle at.
type beat struct {
	at       uint64
	from, to int
}

// network is the deterministic message fabric.
type network struct {
	seed   int64
	rtt    uint64  // round trip in cycles; one-way = rtt/2 scaled by jitter
	jitter float64 // [0, 1)
	plan   *chaos.Plan
	seq    uint64
	q      msgHeap
	sent   uint64 // messages sent; beats are not counted

	beats      []beat // liveness beats in flight, in send order
	latestBeat uint64 // the latest arrival among beats, 0 when there are none

	// Chaos accounting (all zero on the kind path).
	chDropped   uint64 // lost to a per-message drop fate
	chCut       uint64 // lost to an active partition window
	chDupped    uint64 // extra copies injected by duplicate fates
	chDelayed   uint64 // delay-spiked messages
	chReordered uint64 // reorder-jittered messages
}

func newNetwork(seed int64, rtt uint64, jitter float64, plan *chaos.Plan) *network {
	return &network{seed: seed, rtt: rtt, jitter: jitter, plan: plan}
}

// oneWay computes the deterministic one-way latency of message seq.
func (n *network) oneWay(seq uint64) uint64 {
	base := float64(n.rtt) / 2
	// u in [0, 1) from the message's own hash; latency in [base*(1-J), base*(1+J)).
	u := float64(splitmix.Mix(uint64(n.seed)+seq)>>11) / float64(1<<53)
	d := base * (1 - n.jitter + 2*n.jitter*u)
	if d < 1 {
		d = 1
	}
	return uint64(d)
}

// route draws the fate of one message from -> to sent at cycle sentAt,
// consuming its sequence number (and its duplicate's, seq+1), and books
// the chaos counters. It returns the delivery cycle of the
// message, or 0 when it is lost, and of its duplicate, or 0 when there is
// none. A dropped or cut message still consumes its sequence number, so
// the fate stream of the surviving traffic is unperturbed by what was lost.
func (n *network) route(from, to int, sentAt uint64) (seq, at, dupAt uint64) {
	seq = n.seq
	n.seq++
	if !n.plan.Enabled() {
		return seq, sentAt + n.oneWay(seq), 0
	}
	if n.plan.Partitioned(from, to, sentAt) {
		n.chCut++
		return seq, 0, 0
	}
	lat := float64(n.oneWay(seq))
	fate, extra := n.plan.Fate(seq)
	switch fate {
	case chaos.FateDrop:
		n.chDropped++
		return seq, 0, 0
	case chaos.FateDelay:
		lat *= n.plan.DelayMult
		n.chDelayed++
	case chaos.FateReorder:
		// Up to one extra RTT of latency: enough to leapfrog later sends.
		lat += extra * float64(n.rtt)
		n.chReordered++
	}
	slow := n.plan.SlowFactor(from, to, sentAt)
	at = sentAt + latCycles(lat*slow)
	if fate == chaos.FateDup {
		n.chDupped++
		n.seq++
		// The copy takes its own jitter draw but no fate of its own.
		dupAt = sentAt + latCycles(float64(n.oneWay(seq+1))*slow)
	}
	return seq, at, dupAt
}

// send routes m, counts it as sent, and enqueues each surviving copy for
// delivery.
func (n *network) send(m *message, sentAt uint64) {
	n.sent++
	seq, at, dupAt := n.route(m.from, m.to, sentAt)
	if at == 0 {
		return
	}
	m.seq, m.at = seq, at
	heap.Push(&n.q, m)
	if dupAt != 0 {
		cp := *m
		cp.seq, cp.at = seq+1, dupAt
		heap.Push(&n.q, &cp)
	}
}

// beat routes one liveness beat from -> to and records the arrival of
// each surviving copy.
func (n *network) beat(from, to int, sentAt uint64) {
	_, at, dupAt := n.route(from, to, sentAt)
	for _, a := range [2]uint64{at, dupAt} {
		if a == 0 {
			continue
		}
		n.latestBeat = max(n.latestBeat, a)
		n.beats = append(n.beats, beat{at: a, from: from, to: to})
	}
}

// latCycles converts a chaos-scaled float latency to cycles, floor 1.
func latCycles(d float64) uint64 {
	if d < 1 {
		return 1
	}
	return uint64(d)
}

// nextAt returns the earliest pending delivery cycle, or ok=false when the
// fabric is drained.
func (n *network) nextAt() (uint64, bool) {
	if len(n.q) == 0 {
		return 0, false
	}
	return n.q[0].at, true
}

// pop removes and returns the earliest pending message.
func (n *network) pop() *message {
	return heap.Pop(&n.q).(*message)
}
