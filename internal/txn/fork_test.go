package txn

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"specpersist/internal/exec"
	"specpersist/internal/isa"
	"specpersist/internal/mem"
	"specpersist/internal/pmem"
)

// randomTxns runs n seeded transactions on m, each logging and touching up
// to six 8-byte words of the data region that starts at region.
func randomTxns(m *Manager, region uint64, seed int64, n int) {
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		tx := m.MustBegin()
		var lines []uint64
		for k := 0; k < 1+rng.Intn(6); k++ {
			a := region + uint64(rng.Intn(diffLines*mem.LineSize))&^7
			tx.Log(a, 8, isa.NoReg)
			lines = append(lines, a)
		}
		tx.SetLogged()
		for _, a := range lines {
			m.env.StoreU64(a, rng.Uint64(), isa.NoReg, isa.NoReg)
			tx.Touch(a, 8)
		}
		tx.Commit()
	}
}

// TestForkIntoRecycledMatchesFork forks one manager twice, once fresh and
// once into a manager that has already run transactions on another
// machine, and runs the same transactions, a crash inside one and its
// recovery on both: the traces, the stats and every line's volatile and
// durable contents must agree, and the recycled manager must keep the
// line-set tables it had grown.
func TestForkIntoRecycledMatchesFork(t *testing.T) {
	base := newPair().got
	b := base.env.B
	base.env.SetBuilder(nil)
	randomTxns(base.m, base.m.data+diffCapacity*mem.LineSize, 1, 5)

	used := newPair().got
	randomTxns(used.m, used.m.data+diffCapacity*mem.LineSize, 2, 40)
	tables := setTables(used.m)

	freshEnv, freshBuf := traced(base.env.Fork())
	recycledEnv, recycledBuf := traced(base.env.Fork())
	fresh := base.m.Fork(freshEnv)
	recycled := base.m.ForkInto(recycledEnv, used.m)
	base.env.SetBuilder(b)
	if recycled != used.m || setTables(recycled) != tables {
		t.Fatal("ForkInto did not reuse the destination manager and its line sets")
	}

	region := base.m.data + diffCapacity*mem.LineSize
	for _, m := range []*Manager{fresh, recycled} {
		randomTxns(m, region, 3, 30)
		// A transaction cut off mid-commit, then recovered.
		tx := m.MustBegin()
		tx.Log(region, 3*mem.LineSize, isa.NoReg)
		tx.SetLogged()
		m.env.StoreU64(region+mem.LineSize, 7, isa.NoReg, isa.NoReg)
		m.env.Crash(pmem.CrashOptions{})
		if !m.Recover() {
			t.Fatal("recovery found no transaction to roll back")
		}
		randomTxns(m, region, 4, 10)
	}

	if g, w := recycledBuf.Instrs(), freshBuf.Instrs(); !reflect.DeepEqual(g, w) {
		t.Fatalf("traces diverge (%d vs %d instructions)", len(g), len(w))
	}
	if g, w := recycled.Stats(), fresh.Stats(); g != w {
		t.Fatalf("txn stats diverge: recycled %+v, fresh %+v", g, w)
	}
	if g, w := recycledEnv.M.Stats(), freshEnv.M.Stats(); g != w {
		t.Fatalf("pmem stats diverge:\nrecycled %+v\nfresh    %+v", g, w)
	}
	sameLines(t, recycledEnv, freshEnv, fresh.hdr, region+(diffLines+2)*mem.LineSize)
}

// sameLines checks that a and b hold the same volatile contents and the
// same durability on every line of [from, to).
func sameLines(t *testing.T, a, b *exec.Env, from, to uint64) {
	t.Helper()
	var al, bl [mem.LineSize]byte
	for l := from; l < to; l += mem.LineSize {
		a.M.Read(l, al[:])
		b.M.Read(l, bl[:])
		if !bytes.Equal(al[:], bl[:]) || a.M.DurableEquals(l) != b.M.DurableEquals(l) {
			t.Fatalf("line %#x diverges", l)
		}
	}
}

// setTables returns the addresses of the manager's three line-set tables
// (each mem.LineSet's unexported slot slice).
func setTables(m *Manager) [3]uintptr {
	var out [3]uintptr
	for i, s := range []*mem.LineSet{&m.sets.logged, &m.sets.fresh, &m.sets.touched} {
		out[i] = reflect.ValueOf(s).Elem().Field(0).Pointer()
	}
	return out
}
