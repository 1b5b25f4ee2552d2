package pstruct

import (
	"specpersist/internal/exec"
	"specpersist/internal/vstore"
)

// VTree adapts the versioned copy-on-write tree store (internal/vstore) to
// the Structure interface, so the fault, service, sweep and differential
// harnesses can drive the changeset-commit persistence profile through the
// same code paths as the WAL structures. It ignores the txn.Manager
// entirely: durability comes from vstore's two-barrier changeset commit,
// not undo logging.
//
// By default every Apply commits its own changeset, which matches the
// per-op atomicity contract the fault harness checks. The serving layers
// commit by group instead (Machine.CommitByGroup): the machine commits
// once per admission group, turning the whole group into one changeset
// behind a single barrier pair.
type VTree struct {
	S *vstore.Store

	byGroup bool // Apply leaves the changeset open for Commit
}

// NewVTree builds a versioned tree store over env.
func NewVTree(env *exec.Env, cfg vstore.Config) *VTree {
	return &VTree{S: vstore.New(env, cfg)}
}

// Name returns the structure abbreviation.
func (t *VTree) Name() string { return "VT" }

// Apply performs the benchmark toggle on the working set and commits it,
// unless the tree commits by group.
func (t *VTree) Apply(key uint64) {
	t.S.Toggle(key)
	if !t.byGroup {
		t.S.Commit()
	}
}

// Contains reads the last *committed* version — a time-travel read while a
// changeset is in flight, exactly what a server answers during a pending
// group commit.
func (t *VTree) Contains(key uint64) bool {
	_, ok := t.S.GetCommitted(key)
	return ok
}

// Size returns the working tree's key count.
func (t *VTree) Size() int { return int(t.S.Count()) }

// Check validates the committed version (and the working set when dirty).
func (t *VTree) Check() error { return t.S.Check() }

// Commit closes the current changeset; a clean working set is a no-op.
func (t *VTree) Commit() { t.S.Commit() }

// Recover discards any in-flight changeset and lands on the durable
// committed version; Machine.Recover dispatches here instead of to the
// undo log.
func (t *VTree) Recover() bool { return t.S.Recover() }

var _ Structure = (*VTree)(nil)
