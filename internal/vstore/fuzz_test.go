package vstore

import (
	"reflect"
	"testing"

	"specpersist/internal/exec"
	"specpersist/internal/pmem"
	"specpersist/internal/splitmix"
)

// FuzzVstoreOps drives arbitrary op/commit/branch/snapshot/crash sequences
// decoded from the input bytes. Whatever the sequence, the store must never
// panic, every committed version must round-trip through the manifest
// (Snapshot equals the model history, before and after recovery), and
// Diff must patch between the newest version pair exactly.
func FuzzVstoreOps(f *testing.F) {
	f.Add([]byte{1, 5, 1, 9, 0, 0, 2, 7, 3, 5, 0, 0})
	f.Add([]byte{2, 1, 2, 2, 2, 3, 0, 0, 5, 0, 1, 200, 0, 0, 4, 1, 1, 40, 0, 0})
	f.Add([]byte{5, 0, 0, 0, 1, 1, 5, 0, 1, 2, 0, 0, 4, 0, 5, 0})
	f.Add([]byte("\x01\x10\x01\x11\x01\x12\x00\x00\x03\x10\x00\x00\x02\x20\x04\x01\x01\x30\x00\x00"))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 512 {
			data = data[:512]
		}
		env := exec.New()
		s := New(env, Config{FreeValues: true})
		env.M.PersistAll()

		model := make(map[uint64]uint64)
		history := []map[uint64]uint64{cloneModel(model)}

		commit := func() {
			v := s.Commit()
			if int(v) == len(history) {
				history = append(history, cloneModel(model))
			}
		}
		for i := 0; i+1 < len(data); i += 2 {
			op, arg := data[i], data[i+1]
			key := uint64(arg)
			switch op % 6 {
			case 0:
				commit()
			case 1:
				if _, ok := model[key]; ok {
					s.Delete(key)
					delete(model, key)
				} else {
					s.Put(key, splitmix.Mix(key)+uint64(op))
					model[key] = splitmix.Mix(key) + uint64(op)
				}
			case 2:
				val := splitmix.Mix(key ^ uint64(op))
				s.Put(key, val)
				model[key] = val
			case 3:
				s.Delete(key)
				delete(model, key)
			case 4:
				v := key % uint64(len(history))
				if err := s.Branch(v); err != nil {
					t.Fatalf("Branch(%d) of %d committed: %v", v, s.Versions(), err)
				}
				model = cloneModel(history[v])
			case 5:
				env.Crash(pmem.CrashOptions{})
				s.Recover()
				model = cloneModel(history[s.Version()])
			}
		}
		commit()

		if err := s.Check(); err != nil {
			t.Fatalf("Check: %v", err)
		}
		verify := func(when string) {
			if got, want := s.Versions(), len(history); got != want {
				t.Fatalf("%s: Versions() = %d, model history %d", when, got, want)
			}
			for v, want := range history {
				if got := s.Snapshot(uint64(v)); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: version %d: snapshot %d keys, model %d", when, v, len(got), len(want))
				}
			}
		}
		verify("pre-recovery")

		// Manifest round-trip: a crash plus recovery must reproduce every
		// committed version from durable state alone.
		env.Crash(pmem.CrashOptions{})
		s.Recover()
		if s.Recover() {
			t.Fatal("Recover is not idempotent")
		}
		verify("post-recovery")

		if n := uint64(len(history)); n >= 2 {
			got := ApplyDiff(s.Snapshot(n-2), s.Diff(n-2, n-1))
			if !reflect.DeepEqual(got, history[n-1]) {
				t.Fatalf("Diff(%d,%d) round-trip failed", n-2, n-1)
			}
		}
	})
}
