package pstruct

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"specpersist/internal/exec"
	"specpersist/internal/mem"
	"specpersist/internal/pmem"
	"specpersist/internal/vstore"
)

// warmMachine builds name on a fresh fully fenced env and warms it up with
// n keys drawn from seed.
func warmMachine(name string, n int, seed int64) *Machine {
	env := exec.New()
	env.Level = exec.LevelFull
	m := NewMachine(env, name, 2048, testConfig)
	rng := rand.New(rand.NewSource(seed))
	m.Warm(n, func() uint64 { return uint64(rng.Intn(64)) })
	return m
}

// TestForkIntoRecycledMatchesFork forks every structure's warmed machine
// fresh and into a recycled machine that ran another structure, then runs
// the same operations, a crash and recovery on both: recovery, the
// counters, the invariants and the membership must agree.
func TestForkIntoRecycledMatchesFork(t *testing.T) {
	names := AllNames()
	for i, name := range names {
		src := warmMachine(name, 40, 1)
		used := warmMachine(names[(i+1)%len(names)], 60, 2)
		for k := uint64(0); k < 20; k++ {
			used.St.Apply(k)
		}
		fresh, recycled := src.Fork(), src.ForkInto(used)
		if recycled != used {
			t.Fatalf("%s: ForkInto returned a new machine", name)
		}
		var rolled [2]bool
		for j, m := range []*Machine{fresh, recycled} {
			for k := uint64(0); k < 10; k++ {
				m.St.Apply(k * 5)
			}
			m.Env.Crash(pmem.CrashOptions{})
			var err error
			if rolled[j], err = m.Recover(); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if err := m.St.Check(); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		if rolled[0] != rolled[1] {
			t.Errorf("%s: recovery changed state fresh=%v recycled=%v", name, rolled[0], rolled[1])
		}
		if g, w := recycled.Env.M.Stats(), fresh.Env.M.Stats(); g != w {
			t.Errorf("%s: pmem stats diverge:\nrecycled %+v\nfresh    %+v", name, g, w)
		}
		if g, w := recycled.Mgr.Stats(), fresh.Mgr.Stats(); g != w {
			t.Errorf("%s: txn stats diverge: recycled %+v, fresh %+v", name, g, w)
		}
		if g, w := snapshotKeys(recycled.St, name, 64), snapshotKeys(fresh.St, name, 64); !reflect.DeepEqual(g, w) {
			t.Errorf("%s: membership diverges", name)
		}
	}
}

// TestRecoverReturnsPanic makes each recovery panic, the undo log's
// inside a rollback and the versioned store's on a corrupt manifest
// pointer, and requires Recover to return the panic as its error.
func TestRecoverReturnsPanic(t *testing.T) {
	m := warmMachine("LL", 20, 3)
	// Crash inside step 3, after the log and logged_bit are durable: the
	// last six events are step 3's closing sfence and step 4.
	events := 0
	f := m.Fork()
	restore := f.Env.WithHook(func() { events++ })
	f.St.Apply(7)
	restore()
	if !applyWithCrash(m.Env, m.St, 7, events-6) {
		t.Fatal("the operation finished before the crash point")
	}
	m.Env.Crash(pmem.CrashOptions{})
	m.Env.Hook = func() { panic("rollback interrupted") }
	if _, err := m.Recover(); err == nil || !strings.Contains(err.Error(), "recovery panicked: rollback interrupted") {
		t.Errorf("LL: Recover = %v, want the rollback's panic", err)
	}

	m = warmMachine("VT", 20, 3)
	// The store's header is the line whose manifest pointer names the next
	// line and whose capacity is the manifest's.
	hdr := uint64(0)
	for a := uint64(0); a < 1<<30 && hdr == 0; a += mem.LineSize {
		if m.Env.M.ReadU64(a+8) == a+mem.LineSize && m.Env.M.ReadU64(a+16) == vstore.DefaultVersions {
			hdr = a
		}
	}
	m.Env.M.WriteU64(hdr+8, 0)
	m.Env.M.PersistAll()
	m.Env.Crash(pmem.CrashOptions{})
	if _, err := m.Recover(); err == nil || !strings.Contains(err.Error(), "header corrupt") {
		t.Errorf("VT: Recover = %v, want the header check's panic", err)
	}
}
