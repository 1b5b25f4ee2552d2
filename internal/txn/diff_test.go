package txn

import (
	"bytes"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"specpersist/internal/exec"
	"specpersist/internal/isa"
	"specpersist/internal/mem"
	"specpersist/internal/trace"
)

// side is one machine under the differential test: the manager (or the
// reference manager), its env, the trace it emits and its open
// transaction.
type side struct {
	env *exec.Env
	buf *trace.Buffer
	m   *Manager
	tx  *Tx
	rm  *refManager
	rtx *refTx
}

func traced(env *exec.Env) (*exec.Env, *trace.Buffer) {
	buf := &trace.Buffer{}
	env.SetBuilder(trace.NewBuilder(buf))
	return env, buf
}

// pair is one manager and its reference, run on twin envs.
type pair struct{ got, want side }

const (
	diffLines    = 48 // data lines the operations address
	diffCapacity = 64 // log capacity: more than every line an op can reach
)

func newPair() *pair {
	var p pair
	for _, s := range []*side{&p.got, &p.want} {
		s.env, s.buf = traced(exec.New())
		s.env.Level = exec.LevelFull
	}
	p.got.m = NewManager(p.got.env, diffCapacity)
	p.want.rm = newRefManager(p.want.env, diffCapacity)
	for _, s := range []*side{&p.got, &p.want} {
		// Both sides allocate alike, so one address names a line on both.
		region := s.env.AllocLines(diffLines + 2)
		for i := 0; i < (diffLines+2)*mem.LineSize; i += 8 {
			s.env.M.WriteU64(region+uint64(i), uint64(i)*0x9e3779b97f4a7c15)
		}
		s.env.M.PersistAll()
	}
	return &p
}

// fork forks both sides between transactions; the forks trace afresh.
func (p *pair) fork() *pair {
	var f pair
	for _, ss := range [][2]*side{{&p.got, &f.got}, {&p.want, &f.want}} {
		from, to := ss[0], ss[1]
		b := from.env.B
		from.env.SetBuilder(nil)
		to.env, to.buf = traced(from.env.Fork())
		from.env.SetBuilder(b)
	}
	f.got.m = p.got.m.Fork(f.got.env)
	f.want.rm = p.want.rm.fork(f.want.env)
	return &f
}

// region returns the first data line (allocated right after the log).
func (p *pair) region() uint64 { return p.got.m.data + uint64(diffCapacity*mem.LineSize) }

// check compares everything either side could have changed: the traces,
// the pmem counters, and the volatile and durable contents of every line
// from the log header to the end of the data region.
func (p *pair) check(t *testing.T, step int) {
	t.Helper()
	if g, w := p.got.buf.Instrs(), p.want.buf.Instrs(); !reflect.DeepEqual(g, w) {
		t.Fatalf("step %d: traces diverge (%d vs %d instructions)", step, len(g), len(w))
	}
	if g, w := p.got.env.M.Stats(), p.want.env.M.Stats(); g != w {
		t.Fatalf("step %d: pmem stats diverge:\ngot  %+v\nwant %+v", step, g, w)
	}
	if g, w := p.got.m.Stats(), p.want.rm.stats; g != w {
		t.Fatalf("step %d: txn stats diverge: got %+v want %+v", step, g, w)
	}
	var gl, wl [mem.LineSize]byte
	for a := p.got.m.hdr; a < p.region()+(diffLines+2)*mem.LineSize; a += mem.LineSize {
		p.got.env.M.Read(a, gl[:])
		p.want.env.M.Read(a, wl[:])
		if !bytes.Equal(gl[:], wl[:]) || p.got.env.M.DurableEquals(a) != p.want.env.M.DurableEquals(a) {
			t.Fatalf("step %d: line %#x diverges", step, a)
		}
	}
}

// runTxDiff decodes (op, arg) byte pairs into calls on up to four pairs
// (the first and its forks), checking each pair after every call. An op
// that does not apply in a pair's state (Log after SetLogged, Commit with
// no transaction) is skipped on both sides, so every input is valid.
func runTxDiff(t *testing.T, data []byte) {
	pairs := []*pair{newPair()}
	cur := 0
	for i := 0; i+1 < len(data); i += 2 {
		op, arg := data[i]%9, int(data[i+1])
		p := pairs[cur]
		g, w := &p.got, &p.want
		open := g.tx != nil
		addr := p.region() + uint64(arg*29%(diffLines*mem.LineSize))
		size := 1 + arg%(2*mem.LineSize)
		switch op {
		case 0:
			if !open {
				g.tx, w.rtx = g.m.MustBegin(), w.rm.begin()
			}
		case 1:
			if open && !g.tx.Sealed() {
				g.tx.Log(addr, size, isa.NoReg)
				w.rtx.log(addr, size, isa.NoReg)
			}
		case 2:
			if open {
				g.tx.Fresh(addr, size)
				w.rtx.markFresh(addr, size)
			}
		case 3:
			if open {
				g.tx.Touch(addr, size)
				w.rtx.touch(addr, size)
			}
		case 4:
			if open {
				if gc, wc := g.tx.Covered(addr, size), w.rtx.covered(addr, size); gc != wc {
					t.Fatalf("step %d: Covered(%#x, %d) = %v, reference %v", i/2, addr, size, gc, wc)
				}
			}
		case 5:
			if open && !g.tx.Sealed() {
				g.tx.SetLogged()
				w.rtx.setLogged()
			}
		case 6:
			if open && g.tx.Sealed() {
				// An update phase store, then the commit.
				g.env.StoreU64(addr&^7, uint64(arg), isa.NoReg, isa.NoReg)
				w.env.StoreU64(addr&^7, uint64(arg), isa.NoReg, isa.NoReg)
				g.tx.Touch(addr&^7, 8)
				w.rtx.touch(addr&^7, 8)
				g.tx.Commit()
				w.rtx.commit()
				g.tx, w.rtx = nil, nil
			}
		case 7:
			if !open && len(pairs) < 4 {
				pairs = append(pairs, p.fork())
			}
		case 8:
			cur = arg % len(pairs)
		}
		p.check(t, i/2)
	}
}

// txDiffSeeds cover one transaction, a re-logged and re-touched line, a
// fresh line, a second transaction reusing the sets, and transactions on a
// fork interleaved with the original's.
var txDiffSeeds = [][]byte{
	{0, 0, 1, 5, 1, 70, 1, 5, 4, 5, 4, 200, 5, 0, 3, 5, 3, 5, 6, 9},
	{0, 0, 2, 40, 1, 3, 4, 40, 4, 3, 4, 90, 5, 0, 6, 40, 0, 0, 4, 3, 1, 90, 4, 90, 5, 0, 6, 90},
	{0, 0, 1, 1, 5, 0, 6, 1, 7, 0, 0, 0, 1, 7, 8, 1, 0, 0, 1, 8, 4, 7, 8, 0, 4, 7, 5, 0, 8, 1, 5, 0, 6, 8, 8, 0, 6, 7},
}

// FuzzTxMatchesReference drives random Begin/Log/Fresh/Touch/Covered/
// SetLogged/Commit sequences, with forks between transactions, through the
// manager and the map-based reference.
func FuzzTxMatchesReference(f *testing.F) {
	for _, s := range txDiffSeeds {
		f.Add(s)
	}
	f.Fuzz(runTxDiff)
}

// TestForksRunConcurrently forks one manager four times and runs
// transactions on every fork at once (the image cache hands forks of one
// image to concurrent runs); under -race any storage the forks share is
// reported, and each fork must still match its reference.
func TestForksRunConcurrently(t *testing.T) {
	base := newPair()
	// A committed transaction first, so the manager's sets have tables a
	// careless Fork would share.
	tx, rtx := base.got.m.MustBegin(), base.want.rm.begin()
	tx.Log(base.region(), 2*mem.LineSize, isa.NoReg)
	rtx.log(base.region(), 2*mem.LineSize, isa.NoReg)
	tx.SetLogged()
	rtx.setLogged()
	tx.Commit()
	rtx.commit()
	forks := make([]*pair, 4)
	for i := range forks {
		forks[i] = base.fork()
	}
	var wg sync.WaitGroup
	for i, p := range forks {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(i)))
			for n := 0; n < 40; n++ {
				tx, rtx := p.got.m.MustBegin(), p.want.rm.begin()
				for k := 0; k < 1+rng.Intn(6); k++ {
					a := p.region() + uint64(rng.Intn(diffLines*mem.LineSize))
					tx.Log(a, 8, isa.NoReg)
					rtx.log(a, 8, isa.NoReg)
				}
				tx.SetLogged()
				rtx.setLogged()
				for k := 0; k < 1+rng.Intn(6); k++ {
					a := p.region() + uint64(rng.Intn(diffLines*mem.LineSize))
					tx.Touch(a, 8)
					rtx.touch(a, 8)
				}
				tx.Commit()
				rtx.commit()
			}
		}()
	}
	wg.Wait()
	for i, p := range forks {
		p.check(t, i)
	}
}

// TestTxMatchesReference runs the differential check on seeded random
// programs beyond the fuzz seeds.
func TestTxMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		data := make([]byte, 2*(20+rng.Intn(200)))
		for i := range data {
			data[i] = byte(rng.Intn(256))
		}
		runTxDiff(t, data)
	}
}
