package sp

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"specpersist/internal/isa"
)

func TestSSBLatencyTable(t *testing.T) {
	// Table 3 of the paper.
	want := map[int]uint64{32: 2, 64: 3, 128: 4, 256: 5, 512: 7, 1024: 10}
	for n, lat := range want {
		if got := SSBLatency(n); got != lat {
			t.Errorf("SSBLatency(%d) = %d, want %d", n, got, lat)
		}
	}
	// Off-table sizes round up.
	if got := SSBLatency(100); got != 4 {
		t.Errorf("SSBLatency(100) = %d, want 4", got)
	}
	if got := SSBLatency(4096); got != 10 {
		t.Errorf("SSBLatency(4096) = %d, want 10", got)
	}
}

func TestSSBLatencyRejectsNonPositive(t *testing.T) {
	for _, n := range []int{0, -1, -256} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("SSBLatency(%d) did not panic", n)
				}
			}()
			SSBLatency(n)
		}()
	}
}

func TestSSBFIFOOrder(t *testing.T) {
	s := NewSSB(4)
	for i := 0; i < 4; i++ {
		if !s.Push(Entry{Op: isa.Store, Addr: uint64(i * 64), Size: 8}) {
			t.Fatalf("push %d failed", i)
		}
	}
	if !s.Full() {
		t.Error("SSB should be full")
	}
	if s.Push(Entry{Op: isa.Store}) {
		t.Error("push into full SSB succeeded")
	}
	for i := 0; i < 4; i++ {
		e, ok := s.Pop()
		if !ok || e.Addr != uint64(i*64) {
			t.Fatalf("pop %d = %+v, %v", i, e, ok)
		}
	}
	if _, ok := s.Pop(); ok {
		t.Error("pop from empty SSB succeeded")
	}
	if s.MaxUsed() != 4 {
		t.Errorf("MaxUsed = %d, want 4", s.MaxUsed())
	}
}

func TestSSBMatchLoad(t *testing.T) {
	s := NewSSB(16)
	s.Push(Entry{Op: isa.Store, Addr: 0x100, Size: 8})
	s.Push(Entry{Op: isa.Clwb, Addr: 0x200}) // PMEM entries never forward
	tests := []struct {
		addr uint64
		size int
		want bool
	}{
		{0x100, 8, true},
		{0x104, 4, true},  // partial overlap
		{0x0F8, 8, false}, // adjacent below
		{0x108, 8, false}, // adjacent above
		{0x0FC, 8, true},  // straddles start
		{0x200, 8, false}, // clwb address is not store data
	}
	for _, tt := range tests {
		if got := s.MatchLoad(tt.addr, tt.size); got != tt.want {
			t.Errorf("MatchLoad(%#x, %d) = %v, want %v", tt.addr, tt.size, got, tt.want)
		}
	}
}

func TestSSBFlush(t *testing.T) {
	s := NewSSB(4)
	s.Push(Entry{Op: isa.Store, Addr: 1, Size: 1})
	s.Flush()
	if s.Len() != 0 {
		t.Error("Flush left entries")
	}
}

func TestSSBFront(t *testing.T) {
	s := NewSSB(4)
	if _, ok := s.Front(); ok {
		t.Error("Front on empty SSB")
	}
	s.Push(Entry{Op: isa.Pcommit, Barrier: true, Epoch: 2})
	e, ok := s.Front()
	if !ok || !e.Barrier || e.Epoch != 2 {
		t.Errorf("Front = %+v, %v", e, ok)
	}
	if s.Len() != 1 {
		t.Error("Front consumed the entry")
	}
}

// TestSSBWrapAround drives a 5-slot SSB around its ring many times and
// checks it against a slice model: FIFO order, Front, MatchLoad (a store
// matches even when it sits in the wrapped part, and a PMEM entry at the
// same address never does), Flush and Reset mid-wrap.
func TestSSBWrapAround(t *testing.T) {
	const capacity = 5
	s := NewSSB(capacity)
	var model []Entry
	high, wraps := 0, 0
	rng := rand.New(rand.NewSource(3))
	for step := 0; step < 5000; step++ {
		switch r := rng.Intn(100); {
		case r < 50:
			op := isa.Store
			if rng.Intn(4) == 0 {
				op = isa.Clwb
			}
			e := Entry{Op: op, Addr: uint64(rng.Intn(16)) * 8, Size: 8, Epoch: step}
			if got, want := s.Push(e), len(model) < capacity; got != want {
				t.Fatalf("step %d: Push = %v with %d entries", step, got, len(model))
			}
			if len(model) < capacity {
				model = append(model, e)
				high = max(high, len(model))
			}
		case r < 90:
			e, ok := s.Pop()
			if ok != (len(model) > 0) || ok && e != model[0] {
				t.Fatalf("step %d: Pop = %+v, %v; model %v", step, e, ok, model)
			}
			if ok {
				model = model[1:]
			}
		case r < 95:
			s.Flush()
			model = nil
		default:
			s.Reset()
			model, high = nil, 0
		}
		if s.Len() != len(model) || s.Full() != (len(model) == capacity) || s.MaxUsed() != high {
			t.Fatalf("step %d: len %d full %v max %d; model len %d max %d", step, s.Len(), s.Full(), s.MaxUsed(), len(model), high)
		}
		if e, ok := s.Front(); ok != (len(model) > 0) || ok && e != model[0] {
			t.Fatalf("step %d: Front = %+v, %v; model %v", step, e, ok, model)
		}
		if s.head+s.Len() > capacity {
			wraps++
		}
		for a := uint64(0); a < 16*8; a += 4 {
			want := false
			for _, e := range model {
				want = want || e.Op == isa.Store && e.Addr < a+8 && a < e.Addr+8
			}
			if got := s.MatchLoad(a, 8); got != want {
				t.Fatalf("step %d: MatchLoad(%#x) = %v; model %v (head %d)", step, a, got, model, s.head)
			}
		}
	}
	if wraps < 500 {
		t.Errorf("only %d of 5000 steps held entries across the wrap", wraps)
	}
}

func TestBloomNoFalseNegatives(t *testing.T) {
	b := NewBloom(512)
	f := func(addrs []uint64) bool {
		b.Clear()
		for _, a := range addrs {
			b.Add(a)
		}
		for _, a := range addrs {
			if !b.MayContain(a) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestBloomResetClears(t *testing.T) {
	b := NewBloom(512)
	for i := uint64(0); i < 100; i++ {
		b.Add(i * 64)
	}
	b.Clear()
	hits := 0
	for i := uint64(0); i < 100; i++ {
		if b.MayContain(i * 64) {
			hits++
		}
	}
	if hits != 0 {
		t.Errorf("%d hits after reset", hits)
	}
}

func TestBloomFalsePositiveRateReasonable(t *testing.T) {
	b := NewBloom(512) // 4096 bits, 2 hashes
	for i := uint64(0); i < 64; i++ {
		b.Add(0x10000 + i*64)
	}
	fp := 0
	const probes = 10000
	for i := uint64(0); i < probes; i++ {
		if b.MayContain(0x900000 + i*64) {
			fp++
		}
	}
	// With 64 lines inserted the expected FP rate is well under 1%.
	if rate := float64(fp) / probes; rate > 0.02 {
		t.Errorf("false positive rate %.3f too high", rate)
	}
}

func TestBloomStats(t *testing.T) {
	b := NewBloom(64)
	b.Add(0)
	b.MayContain(0)
	b.MayContain(1 << 30)
	if b.queries != 2 {
		t.Errorf("Queries = %d", b.queries)
	}
	if b.Hits() < 1 {
		t.Errorf("Hits = %d", b.Hits())
	}
}

func TestCheckpointsLifecycle(t *testing.T) {
	c := NewCheckpoints(2)
	if !c.Take() || !c.Take() {
		t.Fatal("takes failed")
	}
	if c.Take() {
		t.Fatal("third take succeeded with cap 2")
	}
	if c.Stalls() != 1 {
		t.Errorf("Stalls = %d", c.Stalls())
	}
	c.Release()
	if !c.Take() {
		t.Fatal("take after release failed")
	}
	if c.MaxUsed() != 2 || c.Used() != 2 {
		t.Errorf("MaxUsed=%d Used=%d", c.MaxUsed(), c.Used())
	}
}

func TestCheckpointsReleasePanicsWhenEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewCheckpoints(1).Release()
}

func TestBLT(t *testing.T) {
	b := NewBLT()
	b.Record(0x1008) // records the whole line
	if !b.Conflicts(0x1000) || !b.Conflicts(0x103F) {
		t.Error("same-line access should conflict")
	}
	if b.Conflicts(0x1040) {
		t.Error("next line should not conflict")
	}
	b.Record(0x2000)
	if b.Len() != 2 || b.Max() != 2 {
		t.Errorf("Len=%d Max=%d", b.Len(), b.Max())
	}
	b.Clear()
	if b.Len() != 0 || b.Conflicts(0x1000) {
		t.Error("Clear did not clear")
	}
	if b.Max() != 2 {
		t.Error("Clear cleared the high-water mark")
	}
}

func TestConstructorsPanicOnBadArgs(t *testing.T) {
	for _, fn := range []func(){
		func() { NewSSB(0) },
		func() { NewBloom(0) },
		func() { NewBloom(7) },
		func() { NewCheckpoints(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

// TestResetMatchesNew checks that each structure's Reset returns the state
// its constructor builds, counters and high-water marks included, however
// much it ran before.
func TestResetMatchesNew(t *testing.T) {
	ssb := NewSSB(32)
	for i := 0; i < 20; i++ {
		ssb.Push(Entry{Op: isa.Store, Addr: uint64(i) * 64, Size: 8, Epoch: i})
	}
	ssb.Pop()
	ssb.Reset()
	if fresh := NewSSB(32); ssb.Len() != 0 || ssb.MaxUsed() != 0 || ssb.cap != fresh.cap || ssb.lat != fresh.lat {
		t.Errorf("SSB after Reset: len %d, max %d, cap %d, lat %d", ssb.Len(), ssb.MaxUsed(), ssb.cap, ssb.lat)
	}

	bl := NewBloom(512)
	for i := uint64(0); i < 100; i++ {
		bl.Add(i * 64)
		bl.MayContain(i * 128)
	}
	bl.Reset()
	if fresh := NewBloom(512); !reflect.DeepEqual(bl, fresh) {
		t.Errorf("Bloom after Reset = %+v, want %+v", *bl, *fresh)
	}

	ck := NewCheckpoints(4)
	for i := 0; i < 6; i++ {
		ck.Take()
	}
	ck.Reset()
	if fresh := NewCheckpoints(4); *ck != *fresh {
		t.Errorf("Checkpoints after Reset = %+v, want %+v", *ck, *fresh)
	}

	blt := NewBLT()
	for i := uint64(0); i < 10; i++ {
		blt.Record(i * 64)
	}
	blt.Reset()
	if blt.Len() != 0 || blt.Max() != 0 || blt.Conflicts(0) {
		t.Errorf("BLT after Reset: len %d, max %d", blt.Len(), blt.Max())
	}
}
