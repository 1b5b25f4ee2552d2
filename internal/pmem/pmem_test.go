package pmem

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"testing/quick"

	"specpersist/internal/mem"
)

func TestWriteMakesDirty(t *testing.T) {
	m := New()
	addr := m.AllocLines(1)
	if got := m.LineState(addr); got != Clean {
		t.Fatalf("fresh line state = %v, want clean", got)
	}
	m.WriteU64(addr, 1)
	if got := m.LineState(addr); got != Dirty {
		t.Fatalf("state after write = %v, want dirty", got)
	}
}

func TestClwbMovesToWPQ(t *testing.T) {
	m := New()
	addr := m.AllocLines(1)
	m.WriteU64(addr, 1)
	m.Clwb(addr)
	if got := m.LineState(addr); got != InWPQ {
		t.Fatalf("state after clwb = %v, want in-wpq", got)
	}
	if m.DurableEquals(addr) {
		t.Error("line durable before pcommit")
	}
}

func TestClwbOnCleanLineIsNoop(t *testing.T) {
	m := New()
	addr := m.AllocLines(1)
	m.Clwb(addr)
	if len(m.wpq) != 0 {
		t.Error("clean-line clwb populated WPQ")
	}
	st := m.Stats()
	if st.Clwbs != 1 || st.Flushed != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestPcommitMakesDurable(t *testing.T) {
	m := New()
	addr := m.AllocLines(1)
	m.WriteU64(addr, 42)
	m.Clwb(addr)
	m.Pcommit()
	if got := m.LineState(addr); got != Clean {
		t.Fatalf("state after pcommit = %v, want clean", got)
	}
	if !m.DurableEquals(addr) {
		t.Error("line not durable after clwb+pcommit")
	}
}

func TestPcommitWithoutClwbDoesNothing(t *testing.T) {
	m := New()
	addr := m.AllocLines(1)
	m.WriteU64(addr, 42)
	m.Pcommit()
	if m.DurableEquals(addr) {
		t.Error("dirty line became durable without writeback")
	}
}

func TestCrashLosesDirtyAndWPQ(t *testing.T) {
	m := New()
	a := m.AllocLines(1)
	b := m.AllocLines(1)
	c := m.AllocLines(1)
	// a: fully persisted; b: in WPQ; c: dirty only.
	m.WriteU64(a, 1)
	m.Clwb(a)
	m.Pcommit()
	m.WriteU64(b, 2)
	m.Clwb(b)
	m.WriteU64(c, 3)
	m.Crash(CrashOptions{})
	if got := m.ReadU64(a); got != 1 {
		t.Errorf("persisted value lost: got %d", got)
	}
	if got := m.ReadU64(b); got != 0 {
		t.Errorf("WPQ value survived strict crash: got %d", got)
	}
	if got := m.ReadU64(c); got != 0 {
		t.Errorf("dirty value survived crash: got %d", got)
	}
	if len(dirtyLines(m)) != 0 || len(m.wpq) != 0 {
		t.Error("crash did not clear volatile tracking")
	}
	if err := slotsMatchWPQ(m); err != nil {
		t.Errorf("crash left the WPQ slot index behind: %v", err)
	}
}

func TestCrashPreservesAllocator(t *testing.T) {
	m := New()
	a := m.AllocLines(1)
	m.Crash(CrashOptions{})
	b := m.AllocLines(1)
	if b <= a {
		t.Errorf("allocator reused addresses after crash: a=%#x b=%#x", a, b)
	}
}

func TestWPQHoldsSnapshotNotLatest(t *testing.T) {
	m := New()
	addr := m.AllocLines(1)
	m.WriteU64(addr, 1)
	m.Clwb(addr) // snapshot value 1 into WPQ
	m.WriteU64(addr, 2)
	m.Pcommit() // persists the snapshot (1), not the newer store (2)
	m.Crash(CrashOptions{})
	if got := m.ReadU64(addr); got != 1 {
		t.Errorf("durable value = %d, want snapshot 1", got)
	}
}

func TestRedirtyAfterClwbNeedsSecondFlush(t *testing.T) {
	m := New()
	addr := m.AllocLines(1)
	m.WriteU64(addr, 1)
	m.Clwb(addr)
	m.WriteU64(addr, 2)
	if got := m.LineState(addr); got != Dirty {
		t.Fatalf("state = %v, want dirty (new store re-dirties)", got)
	}
	m.Clwb(addr)
	m.Pcommit()
	if !m.DurableEquals(addr) {
		t.Error("second flush did not persist latest value")
	}
}

func TestCrashWithEvictions(t *testing.T) {
	m := New()
	addr := m.AllocLines(1)
	m.WriteU64(addr, 7)
	// EvictFrac 1.0: every dirty line is spontaneously evicted+drained.
	m.Crash(CrashOptions{EvictFrac: 1.0, Rand: rand.New(rand.NewSource(1))})
	if got := m.ReadU64(addr); got != 7 {
		t.Errorf("evicted line not durable: got %d", got)
	}
}

func TestCrashWithWPQDrain(t *testing.T) {
	m := New()
	addr := m.AllocLines(1)
	m.WriteU64(addr, 9)
	m.Clwb(addr)
	m.Crash(CrashOptions{DrainFrac: 1.0, Rand: rand.New(rand.NewSource(1))})
	if got := m.ReadU64(addr); got != 9 {
		t.Errorf("drained WPQ entry not durable: got %d", got)
	}
}

func TestPersistAll(t *testing.T) {
	m := New()
	addrs := make([]uint64, 10)
	for i := range addrs {
		addrs[i] = m.AllocLines(1)
		m.WriteU64(addrs[i], uint64(i+1))
	}
	m.PersistAll()
	m.Crash(CrashOptions{})
	for i, a := range addrs {
		if got := m.ReadU64(a); got != uint64(i+1) {
			t.Errorf("addr %d: got %d want %d", i, got, i+1)
		}
	}
}

func TestMultiLineWrite(t *testing.T) {
	m := New()
	addr := m.AllocLines(4)
	data := make([]byte, 4*mem.LineSize)
	for i := range data {
		data[i] = byte(i)
	}
	m.Write(addr, data)
	if got := dirtyLines(m); len(got) != 4 {
		t.Errorf("%d dirty lines, want 4", len(got))
	}
	for i := 0; i < 4; i++ {
		m.Clwb(addr + uint64(i*mem.LineSize))
	}
	m.Pcommit()
	m.Crash(CrashOptions{})
	got := make([]byte, len(data))
	m.Read(addr, got)
	for i := range data {
		if got[i] != data[i] {
			t.Fatalf("byte %d: got %d want %d", i, got[i], data[i])
		}
	}
}

func TestLineStateString(t *testing.T) {
	for s, want := range map[LineState]string{Clean: "clean", Dirty: "dirty", InWPQ: "in-wpq", LineState(9): "invalid"} {
		if s.String() != want {
			t.Errorf("%d.String() = %q", s, s.String())
		}
	}
}

func TestStatsCounting(t *testing.T) {
	m := New()
	addr := m.AllocLines(1)
	m.WriteU64(addr, 1)
	m.Read(addr, make([]byte, 8))
	m.Clwb(addr)
	m.Sfence()
	m.Pcommit()
	m.Sfence()
	st := m.Stats()
	if st.Stores != 1 || st.Loads != 1 || st.Clwbs != 1 || st.Pcommits != 1 || st.Sfences != 2 || st.Persisted != 1 {
		t.Errorf("stats = %+v", st)
	}
	m.ResetStats()
	if m.Stats() != (Stats{}) {
		t.Error("ResetStats did not clear")
	}
}

// Property: after write+clwb+pcommit, every line of the written range
// survives a strict crash.
func TestQuickPersistedSurvivesCrash(t *testing.T) {
	f := func(vals []uint64) bool {
		if len(vals) == 0 {
			return true
		}
		if len(vals) > 32 {
			vals = vals[:32]
		}
		m := New()
		addrs := make([]uint64, len(vals))
		for i, v := range vals {
			addrs[i] = m.AllocLines(1)
			m.WriteU64(addrs[i], v)
			m.Clwb(addrs[i])
		}
		m.Pcommit()
		m.Crash(CrashOptions{})
		for i, v := range vals {
			if m.ReadU64(addrs[i]) != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: a strict crash never exposes values that were only stored (not
// flushed+committed).
func TestQuickUnpersistedNeverSurvives(t *testing.T) {
	f := func(vals []uint64) bool {
		if len(vals) == 0 {
			return true
		}
		if len(vals) > 32 {
			vals = vals[:32]
		}
		m := New()
		addrs := make([]uint64, len(vals))
		for i, v := range vals {
			addrs[i] = m.AllocLines(1)
			m.WriteU64(addrs[i], v|1) // ensure non-zero
		}
		m.Crash(CrashOptions{})
		for _, a := range addrs {
			if m.ReadU64(a) != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestCrashOptionsValidation(t *testing.T) {
	cases := []CrashOptions{
		{EvictFrac: -0.1},
		{EvictFrac: 1.1},
		{DrainFrac: -1},
		{DrainFrac: 2},
		{TornFrac: -0.5},
		{TornFrac: 1.5},
	}
	for i, opts := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: Crash(%+v) did not panic", i, opts)
				}
			}()
			New().Crash(opts)
		}()
	}
	// In-range values (with no Rand) must not panic.
	New().Crash(CrashOptions{EvictFrac: 1, DrainFrac: 0.5, TornFrac: 0.25})
}

// TestLineFateTornWrite persists only selected 8-byte chunks of a line:
// the NVM atomicity the paper assumes is 8 bytes, so any chunk subset is a
// legal post-crash image.
func TestLineFateTornWrite(t *testing.T) {
	m := New()
	addr := m.AllocLines(1)
	for c := 0; c < LineChunks; c++ {
		m.WriteU64(addr+uint64(c*8), uint64(100+c))
	}
	// Persist chunks 0 and 3 of the dirty line only.
	m.Crash(CrashOptions{LineFate: func(line uint64, src CrashSource) uint8 {
		if src != SourceCache {
			t.Errorf("unexpected source %v for dirty line", src)
		}
		return 1<<0 | 1<<3
	}})
	for c := 0; c < LineChunks; c++ {
		want := uint64(0)
		if c == 0 || c == 3 {
			want = uint64(100 + c)
		}
		if got := m.ReadU64(addr + uint64(c*8)); got != want {
			t.Errorf("chunk %d: got %d want %d", c, got, want)
		}
	}
	if m.Stats().TornLines != 1 {
		t.Errorf("TornLines = %d, want 1", m.Stats().TornLines)
	}
}

// TestLineFateWPQSnapshotTorn tears a WPQ snapshot: the persisted chunks
// must carry the snapshot content, not the newer volatile content.
func TestLineFateWPQSnapshotTorn(t *testing.T) {
	m := New()
	addr := m.AllocLines(1)
	m.WriteU64(addr, 1)
	m.WriteU64(addr+8, 2)
	m.Clwb(addr) // snapshot {1, 2}
	m.WriteU64(addr, 50)
	m.WriteU64(addr+8, 60) // line dirty again on top of the snapshot
	m.Crash(CrashOptions{LineFate: func(line uint64, src CrashSource) uint8 {
		if src == SourceWPQ {
			return 1 << 1 // drain only the second chunk of the snapshot
		}
		return 0 // the re-dirtied content is lost
	}})
	if got := m.ReadU64(addr); got != 0 {
		t.Errorf("chunk 0: got %d, want 0 (not drained)", got)
	}
	if got := m.ReadU64(addr + 8); got != 2 {
		t.Errorf("chunk 1: got %d, want snapshot value 2", got)
	}
}

// TestLineFateEvictionBeatsDrain persists both the WPQ snapshot and the
// newer dirty content of the same line: the eviction (newer content) must
// win, matching the documented drain-then-evict order.
func TestLineFateEvictionBeatsDrain(t *testing.T) {
	m := New()
	addr := m.AllocLines(1)
	m.WriteU64(addr, 1)
	m.Clwb(addr)
	m.WriteU64(addr, 2)
	m.Crash(CrashOptions{LineFate: func(line uint64, src CrashSource) uint8 { return FullMask }})
	if got := m.ReadU64(addr); got != 2 {
		t.Errorf("got %d, want the evicted (newer) value 2", got)
	}
}

// TestCrashSeedReplay checks that two identical seeded crash injections
// produce byte-identical durable images: Crash visits lines in sorted
// order, so the Rand consumption no longer depends on map iteration.
func TestCrashSeedReplay(t *testing.T) {
	build := func() *Model {
		m := New()
		rng := rand.New(rand.NewSource(3))
		for i := 0; i < 200; i++ {
			a := m.AllocLines(1)
			m.WriteU64(a, rng.Uint64())
			if i%3 == 0 {
				m.Clwb(a)
			}
		}
		m.Crash(CrashOptions{EvictFrac: 0.5, DrainFrac: 0.5, TornFrac: 0.5,
			Rand: rand.New(rand.NewSource(42))})
		return m
	}
	a, b := build(), build()
	base := uint64(mem.DefaultBase)
	for off := uint64(0); off < 200*mem.LineSize; off += 8 {
		if x, y := a.ReadU64(base+off), b.ReadU64(base+off); x != y {
			t.Fatalf("offset %d: %d != %d — crash injection not replayable", off, x, y)
		}
	}
}

func TestParseCrashSource(t *testing.T) {
	for _, src := range []CrashSource{SourceCache, SourceWPQ} {
		got, err := ParseCrashSource(src.String())
		if err != nil || got != src {
			t.Errorf("round trip %v: got %v, %v", src, got, err)
		}
	}
	if _, err := ParseCrashSource("nope"); err == nil {
		t.Error("ParseCrashSource accepted garbage")
	}
	if CrashSource(99).String() != "invalid" {
		t.Error("invalid source name")
	}
}

// modelImage is a deep, comparable capture of everything a Model owns.
type modelImage struct {
	volatile, durable []byte
	dirty             map[uint64]bool
	wpq               map[uint64]string
	stats             Stats
}

// imageOf captures m over the address range [mem.DefaultBase, brk).
func imageOf(m *Model) modelImage {
	n := int(m.volatile.Brk() - mem.DefaultBase)
	img := modelImage{
		volatile: make([]byte, n),
		durable:  make([]byte, n),
		dirty:    make(map[uint64]bool),
		wpq:      make(map[uint64]string),
		stats:    m.stats,
	}
	m.volatile.Read(mem.DefaultBase, img.volatile)
	m.durable.Read(mem.DefaultBase, img.durable)
	for _, line := range dirtyLines(m) {
		img.dirty[line] = true
	}
	for _, e := range m.wpq {
		img.wpq[e.line] = string(e.data[:])
	}
	return img
}

// dirtyLines lists the base addresses of the dirty set, ascending.
func dirtyLines(m *Model) []uint64 {
	var lines []uint64
	m.dirty.each(func(line uint64) { lines = append(lines, line) })
	return lines
}

// TestCloneIsIsolated runs writes, clwbs, pcommits, a direct edit of a WPQ
// snapshot and a crash on one side of a Clone, and requires the other
// side's volatile and durable images, dirty set, WPQ and stats to stay
// byte-identical — in both directions, so neither shared mem pages nor
// shared WPQ snapshot buffers go unnoticed.
func TestCloneIsIsolated(t *testing.T) {
	setup := func() *Model {
		m := New()
		base := m.AllocLines(8)
		for i := uint64(0); i < 8; i++ {
			m.WriteU64(base+i*mem.LineSize, 100+i)
		}
		m.Clwb(base)
		m.Clwb(base + mem.LineSize)
		m.Pcommit() // lines 0-1 durable
		m.Clwb(base + 2*mem.LineSize)
		m.Clwb(base + 3*mem.LineSize) // lines 2-3 in the WPQ, 4-7 dirty
		return m
	}
	mutate := func(m *Model) {
		base := uint64(mem.DefaultBase)
		for i := range m.wpq {
			m.wpq[i].data[0] ^= 0xff
		}
		for i := uint64(0); i < 8; i++ {
			m.WriteU64(base+i*mem.LineSize, 900+i)
		}
		m.Write(base+5*mem.LineSize+8, []byte("scribble"))
		m.Clwb(base + 4*mem.LineSize)
		m.Pcommit()
		m.Clwb(base + 6*mem.LineSize)
		m.Crash(CrashOptions{LineFate: func(uint64, CrashSource) uint8 { return 0x0f }})
		m.WriteU64(base+7*mem.LineSize, 1)
	}
	for _, forkSide := range []bool{true, false} {
		parent := setup()
		fork := parent.Clone()
		if !reflect.DeepEqual(imageOf(parent), imageOf(fork)) {
			t.Fatal("clone differs from its parent")
		}
		kept, changed := parent, fork
		if !forkSide {
			kept, changed = fork, parent
		}
		before := imageOf(kept)
		mutate(changed)
		if reflect.DeepEqual(imageOf(changed), before) {
			t.Fatal("mutation changed nothing; the test is vacuous")
		}
		if after := imageOf(kept); !reflect.DeepEqual(after, before) {
			t.Fatalf("mutating the %s changed the other side:\nbefore: %+v\nafter:  %+v",
				map[bool]string{true: "fork", false: "parent"}[forkSide], before, after)
		}
	}
}

// TestConcurrentClonesOfOnePrefix forks one shared model from several
// goroutines at once, as the fault engine forks every trial from one
// prefix, and runs and crashes each fork. Each fork must end as a serial
// fork does and the prefix must not change; run with -race.
func TestConcurrentClonesOfOnePrefix(t *testing.T) {
	prefix := New()
	base := prefix.AllocLines(256)
	for i := uint64(0); i < 256; i++ {
		prefix.WriteU64(base+i*mem.LineSize, i)
		if i%3 == 0 {
			prefix.Clwb(base + i*mem.LineSize)
		}
	}
	trial := func(seed int64) modelImage {
		m := prefix.Clone()
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 64; i++ {
			a := base + uint64(rng.Intn(256))*mem.LineSize
			m.WriteU64(a, rng.Uint64())
			m.Clwb(a)
		}
		m.Crash(CrashOptions{EvictFrac: 0.5, DrainFrac: 0.5, TornFrac: 0.5, Rand: rng})
		return imageOf(m)
	}
	before := imageOf(prefix)
	const trials = 8
	want := make([]modelImage, trials)
	for i := range want {
		want[i] = trial(int64(i))
	}
	got := make([]modelImage, trials)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = trial(int64(i))
		}()
	}
	wg.Wait()
	for i := range got {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("trial %d forked concurrently differs from its serial run", i)
		}
	}
	if !reflect.DeepEqual(imageOf(prefix), before) {
		t.Error("forking and crashing trials changed the shared prefix")
	}
}
