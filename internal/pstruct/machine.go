package pstruct

import (
	"fmt"

	"specpersist/internal/exec"
	"specpersist/internal/obs"
	"specpersist/internal/txn"
)

// Machine is one functional machine: an env, the undo log on it (nil for a
// structure built without one) and the structure built on both. It is the
// one place a structure is built, warmed up, closed at a serving group's
// end, recovered after a crash and forked, so the rule that a structure
// recovers the way it logs — the versioned store through its header,
// selector and manifest, the WAL structures through the undo log — is
// written once. Callers prepare the env (level, adversary, displacement)
// before NewMachine and run their own invariant checks, which read through
// the model and so add to its counters.
type Machine struct {
	Env *exec.Env
	Mgr *txn.Manager
	St  Structure
}

// NewMachine builds the named structure on env, with an undo log of
// logCap entries allocated first; logCap 0 builds no undo log (the
// non-transactional variants). The versioned store allocates the log too
// when asked, though it never uses it, so its layout matches the other
// structures'. Unknown names, and logs the structure cannot run with,
// panic.
func NewMachine(env *exec.Env, name string, logCap int, cfg Config) *Machine {
	var mgr *txn.Manager
	if logCap > 0 {
		mgr = txn.NewManager(env, logCap)
	}
	return &Machine{Env: env, Mgr: mgr, St: Build(name, env, mgr, cfg)}
}

// vtree returns the machine's versioned store, or nil for a WAL structure.
func (m *Machine) vtree() *VTree {
	vt, _ := m.St.(*VTree)
	return vt
}

// Warm applies n keys drawn from key, closes the changeset the warm-up
// left open (a versioned store in group-commit mode) and makes the whole
// image durable. It is also how a crashed fleet node replays its durable
// log onto a fresh machine.
func (m *Machine) Warm(n int, key func() uint64) {
	for i := 0; i < n; i++ {
		m.St.Apply(key())
	}
	if vt := m.vtree(); vt != nil {
		vt.Commit()
	}
	m.Env.M.PersistAll()
}

// CommitByGroup makes a versioned store stop committing each operation:
// the changeset stays open until CloseGroup or the end of Warm. The WAL
// structures commit each operation's transaction regardless.
func (m *Machine) CommitByGroup() {
	if vt := m.vtree(); vt != nil {
		vt.byGroup = true
	}
}

// CoalesceBarriers defers a WAL structure's persist barriers to the end of
// each serving group (exec.Env.SetBarrierCoalescing). The versioned
// store's commit already puts a whole group behind its two barriers, and
// deferring them would reorder its flip before its changeset, so it keeps
// them.
func (m *Machine) CoalesceBarriers() {
	if m.vtree() == nil {
		m.Env.SetBarrierCoalescing(true)
	}
}

// CloseGroup ends a serving group: a versioned store commits the group's
// changeset; a WAL structure issues the one barrier its deferred barriers
// coalesced into, which is nothing when none was deferred.
func (m *Machine) CloseGroup() {
	if vt := m.vtree(); vt != nil {
		vt.Commit()
	} else {
		m.Env.FlushBarriers()
	}
}

// Recover runs the machine's recovery after a crash: the versioned store's
// (the committed version its durable header, selector and manifest name),
// otherwise the undo log's rollback, and nothing without an undo log. It
// reports whether recovery changed anything. Recovery from a state no
// recovery can handle — a corrupt log count or manifest — panics inside;
// that panic is returned as the error.
func (m *Machine) Recover() (changed bool, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("recovery panicked: %v", r)
		}
	}()
	if vt := m.vtree(); vt != nil {
		return vt.Recover(), nil
	}
	if m.Mgr == nil {
		return false, nil
	}
	return m.Mgr.Recover(), nil
}

// Register publishes the machine's counters into r: the persistence
// model's pmem.*, the undo log's txn.* and a versioned store's vstore.*.
func (m *Machine) Register(r *obs.Registry) {
	m.Env.M.Register(r)
	if m.Mgr != nil {
		m.Mgr.Register(r)
	}
	if vt := m.vtree(); vt != nil {
		vt.S.Register(r)
	}
}

// Fork returns an independent deep copy of the machine.
func (m *Machine) Fork() *Machine { return m.ForkInto(&Machine{}) }

// ForkInto makes dst the fork Fork would return, reusing the persistence
// image and undo-log line sets a recycled dst already holds, and returns
// dst. It forks in the order the layers depend on each other: env, then
// undo log, then structure. Nothing of dst's previous run survives.
func (m *Machine) ForkInto(dst *Machine) *Machine {
	env := dst.Env
	if env == nil {
		env = &exec.Env{}
	}
	dst.Env = m.Env.ForkInto(env)
	if m.Mgr == nil {
		dst.Mgr = nil
	} else {
		dst.Mgr = m.Mgr.ForkInto(dst.Env, dst.Mgr)
	}
	dst.St = fork(m.St, dst.Env, dst.Mgr)
	return dst
}

// fork returns a copy of s bound to env and mgr, which must be forks of the
// env and manager s was built on. The WAL structures keep their state in
// simulated memory and hold only addresses fixed at construction and plain
// values (SS's swap count and scratch buffers), so a value copy with the
// bindings swapped is independent; the versioned store also copies its
// Go-side working set.
func fork(s Structure, env *exec.Env, mgr *txn.Manager) Structure {
	b := base{env: env, mgr: mgr}
	switch t := s.(type) {
	case *Graph:
		c := *t
		c.base = b
		return &c
	case *HashMap:
		c := *t
		c.base = b
		return &c
	case *List:
		c := *t
		c.base = b
		return &c
	case *StringSwap:
		c := *t
		c.base = b
		return &c
	case *AVL:
		c := *t
		c.base = b
		return &c
	case *BTree:
		c := *t
		c.base = b
		return &c
	case *RBTree:
		c := *t
		c.base = b
		return &c
	case *VTree:
		c := *t
		c.S = t.S.Fork(env)
		return &c
	default:
		panic(fmt.Sprintf("pstruct: cannot fork %T", s))
	}
}
