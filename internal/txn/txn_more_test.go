package txn

import (
	"testing"

	"specpersist/internal/exec"
	"specpersist/internal/isa"
	"specpersist/internal/mem"
	"specpersist/internal/pmem"
)

func TestSealedReporting(t *testing.T) {
	env := newEnv(exec.LevelFull)
	m := NewManager(env, 4)
	tx := m.MustBegin()
	if tx.Sealed() {
		t.Error("fresh transaction reports sealed")
	}
	tx.SetLogged()
	if !tx.Sealed() {
		t.Error("SetLogged did not seal")
	}
	var nilTx *Tx
	if nilTx.Sealed() {
		t.Error("nil transaction reports sealed")
	}
}

func TestFreshAndCovered(t *testing.T) {
	env := newEnv(exec.LevelFull)
	m := NewManager(env, 4)
	tx := m.MustBegin()
	logged := env.AllocLines(1)
	fresh := env.AllocLines(2)
	other := env.AllocLines(1)
	tx.Log(logged, 8, isa.NoReg)
	tx.Fresh(fresh, 2*mem.LineSize)
	if !tx.Covered(logged, 8) {
		t.Error("logged line not covered")
	}
	if !tx.Covered(logged+56, 8) {
		t.Error("same-line offset not covered")
	}
	if !tx.Covered(fresh, mem.LineSize) || !tx.Covered(fresh+mem.LineSize, 8) {
		t.Error("fresh lines not covered")
	}
	if tx.Covered(other, 8) {
		t.Error("unrelated line reported covered")
	}
	// A range straddling covered and uncovered lines is not covered.
	if tx.Covered(fresh+mem.LineSize, 2*mem.LineSize) {
		t.Error("partially covered range reported covered")
	}
	var nilTx *Tx
	if !nilTx.Covered(other, 8) {
		t.Error("nil transaction must cover everything (baseline variant)")
	}
	nilTx.Fresh(other, 8) // must not panic
}

func TestManagerStats(t *testing.T) {
	env := newEnv(exec.LevelFull)
	m := NewManager(env, 8)
	a := env.AllocLines(1)
	b := env.AllocLines(3)
	runTransfer(t, m, a, b, 1) // logs 2 lines

	tx := m.MustBegin()
	tx.Log(b, 3*mem.LineSize, isa.NoReg) // 3 lines
	tx.SetLogged()
	tx.Touch(b, 8)
	tx.Commit()

	st := m.Stats()
	if st.Txns != 2 {
		t.Errorf("Txns = %d, want 2", st.Txns)
	}
	if st.Entries != 5 {
		t.Errorf("Entries = %d, want 5", st.Entries)
	}
	if st.MaxEntries != 3 {
		t.Errorf("MaxEntries = %d, want 3", st.MaxEntries)
	}
	if st.Recoveries != 0 {
		t.Errorf("Recoveries = %d, want 0", st.Recoveries)
	}
}

func TestRecoveryCountsInStats(t *testing.T) {
	env := newEnv(exec.LevelFull)
	m := NewManager(env, 8)
	a := env.AllocLines(1)
	tx := m.MustBegin()
	tx.Log(a, 8, isa.NoReg)
	tx.SetLogged()
	env.StoreU64(a, 1, isa.NoReg, isa.NoReg)
	env.Crash(pmem.CrashOptions{})
	if !m.Recover() {
		t.Fatal("recovery did not run")
	}
	if st := m.Stats(); st.Recoveries != 1 {
		t.Errorf("Recoveries = %d, want 1", st.Recoveries)
	}
}

func TestCapacityAccessors(t *testing.T) {
	env := newEnv(exec.LevelFull)
	m := NewManager(env, 17)
	if m.Capacity() != 17 {
		t.Errorf("Capacity = %d", m.Capacity())
	}
	if m.Env() != env {
		t.Error("Env accessor broken")
	}
}

// TestFinishedTxPanics: a committed transaction's lines live in sets the
// next transaction reuses, so touching it again is refused rather than
// corrupting the next one.
func TestFinishedTxPanics(t *testing.T) {
	env := newEnv(exec.LevelFull)
	m := NewManager(env, 4)
	a := env.AllocLines(1)
	tx := m.MustBegin()
	tx.Log(a, 8, isa.NoReg)
	tx.SetLogged()
	tx.Commit()
	next := m.MustBegin()
	defer func() {
		if recover() == nil {
			t.Fatal("Touch on a committed transaction did not panic")
		}
		if next.Covered(a, 8) {
			t.Fatal("the committed transaction's line leaked into the next one")
		}
	}()
	tx.Touch(a, 8)
}
