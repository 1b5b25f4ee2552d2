package txn

import (
	"math/rand"
	"testing"
	"testing/quick"

	"specpersist/internal/exec"
	"specpersist/internal/isa"
	"specpersist/internal/pmem"
	"specpersist/internal/trace"
)

// InProgress reports whether the durable state says a transaction was
// active (logged_bit set). Meaningful after a crash.
func (m *Manager) InProgress() bool {
	return m.env.M.ReadU64(m.hdr) != 0
}

func newEnv(level exec.Level) *exec.Env {
	e := exec.New()
	e.Level = level
	return e
}

// runTransfer performs a transactional "move x from a to b" update.
func runTransfer(t *testing.T, m *Manager, a, b uint64, x uint64) {
	t.Helper()
	env := m.Env()
	tx := m.MustBegin()
	tx.Log(a, 8, isa.NoReg)
	tx.Log(b, 8, isa.NoReg)
	tx.SetLogged()
	va, _ := env.LoadU64(a, isa.NoReg)
	vb, _ := env.LoadU64(b, isa.NoReg)
	env.StoreU64(a, va-x, isa.NoReg, isa.NoReg)
	env.StoreU64(b, vb+x, isa.NoReg, isa.NoReg)
	tx.Touch(a, 8)
	tx.Touch(b, 8)
	tx.Commit()
}

func TestCommitMakesUpdatesDurable(t *testing.T) {
	env := newEnv(exec.LevelFull)
	m := NewManager(env, 8)
	a := env.AllocLines(1)
	b := env.AllocLines(1)
	env.StoreU64(a, 100, isa.NoReg, isa.NoReg)
	env.StoreU64(b, 0, isa.NoReg, isa.NoReg)
	env.FlushRange(a, 8)
	env.FlushRange(b, 8)
	env.PersistBarrier()

	runTransfer(t, m, a, b, 30)
	env.M.Crash(pmem.CrashOptions{})
	if m.Recover() {
		t.Error("recovery ran after a clean commit")
	}
	if got := env.M.ReadU64(a); got != 70 {
		t.Errorf("a = %d, want 70", got)
	}
	if got := env.M.ReadU64(b); got != 30 {
		t.Errorf("b = %d, want 30", got)
	}
}

func TestCrashBeforeSetLoggedIsInvisible(t *testing.T) {
	env := newEnv(exec.LevelFull)
	m := NewManager(env, 8)
	a := env.AllocLines(1)
	env.StoreU64(a, 5, isa.NoReg, isa.NoReg)
	env.Clwb(a)
	env.PersistBarrier()

	tx := m.MustBegin()
	tx.Log(a, 8, isa.NoReg)
	// Crash before SetLogged: logged_bit still 0 durably.
	env.M.Crash(pmem.CrashOptions{})
	if m.Recover() {
		t.Error("recovery ran with logged_bit clear")
	}
	if got := env.M.ReadU64(a); got != 5 {
		t.Errorf("a = %d, want 5", got)
	}
}

func TestCrashMidUpdateRollsBack(t *testing.T) {
	env := newEnv(exec.LevelFull)
	m := NewManager(env, 8)
	a := env.AllocLines(1)
	b := env.AllocLines(1)
	env.StoreU64(a, 100, isa.NoReg, isa.NoReg)
	env.FlushRange(a, 8)
	env.FlushRange(b, 8)
	env.PersistBarrier()

	tx := m.MustBegin()
	tx.Log(a, 8, isa.NoReg)
	tx.Log(b, 8, isa.NoReg)
	tx.SetLogged()
	// Half-applied update, partially persisted — worst case.
	env.StoreU64(a, 70, isa.NoReg, isa.NoReg)
	env.Clwb(a)
	env.Pcommit()
	env.M.Crash(pmem.CrashOptions{})
	if !m.InProgress() {
		t.Fatal("logged_bit should be durably set")
	}
	if !m.Recover() {
		t.Fatal("recovery should have run")
	}
	if got := env.M.ReadU64(a); got != 100 {
		t.Errorf("a = %d, want rolled-back 100", got)
	}
	if got := env.M.ReadU64(b); got != 0 {
		t.Errorf("b = %d, want 0", got)
	}
	// The rollback itself must be durable.
	env.M.Crash(pmem.CrashOptions{})
	if got := env.M.ReadU64(a); got != 100 {
		t.Errorf("rollback not durable: a = %d", got)
	}
	if m.InProgress() {
		t.Error("logged_bit still set after recovery")
	}
}

func TestCrashEveryPointPreservesInvariant(t *testing.T) {
	// Run the transfer transaction, crashing after each persistence-model
	// step k, then recover and check the conservation invariant a+b=100.
	// The transaction below performs a bounded number of Env calls; probe
	// well past it.
	for k := 0; k < 120; k++ {
		env := newEnv(exec.LevelFull)
		m := NewManager(env, 8)
		a := env.AllocLines(1)
		b := env.AllocLines(1)
		env.StoreU64(a, 100, isa.NoReg, isa.NoReg)
		env.FlushRange(a, 8)
		env.FlushRange(b, 8)
		env.PersistBarrier()

		crashed := runWithCrashAfter(env, m, a, b, k)
		if crashed {
			env.M.Crash(pmem.CrashOptions{EvictFrac: 0.5, DrainFrac: 0.5,
				Rand: rand.New(rand.NewSource(int64(k)))})
			m.Recover()
		}
		va := env.M.ReadU64(a)
		vb := env.M.ReadU64(b)
		if va+vb != 100 {
			t.Fatalf("crash point %d: invariant broken: a=%d b=%d", k, va, vb)
		}
		if !(va == 100 && vb == 0 || va == 70 && vb == 30) {
			t.Fatalf("crash point %d: not atomic: a=%d b=%d", k, va, vb)
		}
	}
}

// runWithCrashAfter executes the transfer, aborting (returning true) once
// the persistence model has performed k store/flush/commit events.
func runWithCrashAfter(env *exec.Env, m *Manager, a, b uint64, k int) bool {
	baseline := env.M.Stats()
	count := func() int {
		st := env.M.Stats()
		return int(st.Stores - baseline.Stores + st.Clwbs - baseline.Clwbs + st.Pcommits - baseline.Pcommits)
	}
	// Emulate "crash after k events" by checking the counter between every
	// Env call of the transaction body.
	step := func() bool { return count() >= k }

	tx := m.MustBegin()
	tx.Log(a, 8, isa.NoReg)
	if step() {
		return true
	}
	tx.Log(b, 8, isa.NoReg)
	if step() {
		return true
	}
	tx.SetLogged()
	if step() {
		return true
	}
	va, _ := env.LoadU64(a, isa.NoReg)
	env.StoreU64(a, va-30, isa.NoReg, isa.NoReg)
	if step() {
		return true
	}
	vb, _ := env.LoadU64(b, isa.NoReg)
	env.StoreU64(b, vb+30, isa.NoReg, isa.NoReg)
	if step() {
		return true
	}
	tx.Touch(a, 8)
	tx.Touch(b, 8)
	tx.Commit()
	return false
}

func TestTransactionBarrierCounts(t *testing.T) {
	// One transactional update = 4 pcommits, 8 sfences (§3.1).
	env := newEnv(exec.LevelFull)
	var cnt trace.CountSink
	env.SetBuilder(trace.NewBuilder(&cnt))
	m := NewManager(env, 8)
	a := env.AllocLines(1)
	b := env.AllocLines(1)
	runTransfer(t, m, a, b, 1)
	if got := cnt.Count(isa.Pcommit); got != 4 {
		t.Errorf("pcommits = %d, want 4", got)
	}
	if got := cnt.Count(isa.Sfence); got != 8 {
		t.Errorf("sfences = %d, want 8", got)
	}
}

func TestLogDedupsLines(t *testing.T) {
	env := newEnv(exec.LevelFull)
	m := NewManager(env, 4)
	a := env.AllocLines(1)
	tx := m.MustBegin()
	tx.Log(a, 8, isa.NoReg)
	tx.Log(a+16, 8, isa.NoReg) // same line
	tx.Log(a, 64, isa.NoReg)   // same line again
	if tx.Logged() != 1 {
		t.Errorf("Logged() = %d, want 1", tx.Logged())
	}
	tx.SetLogged()
	tx.Commit()
}

func TestLogSpansMultipleLines(t *testing.T) {
	env := newEnv(exec.LevelFull)
	m := NewManager(env, 8)
	a := env.AllocLines(4)
	tx := m.MustBegin()
	tx.Log(a+32, 128, isa.NoReg) // spans 3 lines
	if tx.Logged() != 3 {
		t.Errorf("Logged() = %d, want 3", tx.Logged())
	}
	tx.SetLogged()
	tx.Commit()
}

func TestNilTxIsNoop(t *testing.T) {
	var tx *Tx
	tx.Log(0x100, 8, isa.NoReg)
	tx.SetLogged()
	tx.Touch(0x100, 8)
	tx.Commit()
	if tx.Logged() != 0 {
		t.Error("nil Logged != 0")
	}
}

func TestBeginWhileActiveFails(t *testing.T) {
	env := newEnv(exec.LevelFull)
	m := NewManager(env, 4)
	_ = m.MustBegin()
	if _, err := m.Begin(); err == nil {
		t.Error("expected error on nested Begin")
	}
}

func TestMisusePanics(t *testing.T) {
	env := newEnv(exec.LevelFull)
	cases := []func(){
		func() { NewManager(env, 0) },
		func() {
			m := NewManager(env, 1)
			tx := m.MustBegin()
			a := env.AllocLines(2)
			tx.Log(a, 8, isa.NoReg)
			tx.Log(a+64, 8, isa.NoReg) // over capacity
		},
		func() {
			m := NewManager(env, 4)
			tx := m.MustBegin()
			tx.Commit() // before SetLogged
		},
		func() {
			m := NewManager(env, 4)
			tx := m.MustBegin()
			tx.SetLogged()
			tx.SetLogged()
		},
		func() {
			m := NewManager(env, 4)
			tx := m.MustBegin()
			tx.SetLogged()
			tx.Log(env.AllocLines(1), 8, isa.NoReg)
		},
		func() {
			m := NewManager(env, 4)
			tx := m.MustBegin()
			tx.SetLogged()
			tx.Commit()
			tx.Commit()
		},
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			fn()
		}()
		// Reset any active transaction the case may have leaked.
		env = newEnv(exec.LevelFull)
	}
}

func TestLogVariantIsNotCrashSafe(t *testing.T) {
	// At LevelLog nothing becomes durable; a strict crash mid-transaction
	// must lose everything — this is the point of the Log bar in Fig 8
	// being an incorrect (non-fail-safe) configuration.
	env := newEnv(exec.LevelLog)
	m := NewManager(env, 8)
	a := env.AllocLines(1)
	env.StoreU64(a, 9, isa.NoReg, isa.NoReg)
	tx := m.MustBegin()
	tx.Log(a, 8, isa.NoReg)
	tx.SetLogged()
	env.StoreU64(a, 10, isa.NoReg, isa.NoReg)
	tx.Touch(a, 8)
	tx.Commit()
	env.M.Crash(pmem.CrashOptions{})
	if got := env.M.ReadU64(a); got != 0 {
		t.Errorf("LevelLog data survived crash: %d", got)
	}
}

func TestLogPAdversaryCanBreakRecovery(t *testing.T) {
	// Without fences the undo-log entries may not be durable before the
	// logged_bit (or the updates) — across seeds, at least one crash must
	// yield a non-atomic state, demonstrating why sfences are required.
	broken := false
	for seed := int64(0); seed < 200 && !broken; seed++ {
		env := newEnv(exec.LevelLogP)
		env.Reorder = rand.New(rand.NewSource(seed))
		m := NewManager(env, 8)
		a := env.AllocLines(1)
		b := env.AllocLines(1)
		env.StoreU64(a, 100, isa.NoReg, isa.NoReg)
		env.FlushRange(a, 8)
		env.FlushRange(b, 8)
		env.Pcommit()

		// Crash midway through the update phase.
		tx := m.MustBegin()
		tx.Log(a, 8, isa.NoReg)
		tx.Log(b, 8, isa.NoReg)
		tx.SetLogged()
		env.StoreU64(a, 70, isa.NoReg, isa.NoReg)
		env.Clwb(a)
		env.Pcommit()
		env.Crash(pmem.CrashOptions{})
		m.Recover()
		va, vb := env.M.ReadU64(a), env.M.ReadU64(b)
		if va+vb != 100 {
			broken = true
		}
	}
	if !broken {
		t.Error("adversarial Log+P never broke atomicity; fences would be unnecessary")
	}
}

func TestQuickRandomCrashRecovery(t *testing.T) {
	// Property: under fully fenced transactions, a crash at a random event
	// index with random evictions always leaves the two cells atomic.
	f := func(seed int64, kRaw uint8) bool {
		k := int(kRaw)
		env := newEnv(exec.LevelFull)
		m := NewManager(env, 8)
		a := env.AllocLines(1)
		b := env.AllocLines(1)
		env.StoreU64(a, 100, isa.NoReg, isa.NoReg)
		env.FlushRange(a, 8)
		env.FlushRange(b, 8)
		env.PersistBarrier()
		crashed := runWithCrashAfter(env, m, a, b, k)
		if crashed {
			env.M.Crash(pmem.CrashOptions{EvictFrac: 0.3, DrainFrac: 0.7,
				Rand: rand.New(rand.NewSource(seed))})
			m.Recover()
		}
		va, vb := env.M.ReadU64(a), env.M.ReadU64(b)
		return va+vb == 100 && (va == 100 || va == 70)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Logged reports the number of entries recorded so far.
func (t *Tx) Logged() int {
	if t == nil {
		return 0
	}
	return t.n
}
