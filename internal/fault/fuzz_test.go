package fault

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzFaultPlanJSON pins the reproducer contract crashtest -replay relies
// on: any JSON that decodes into a Plan re-encodes to a fixed point, and
// Run classifies the plan — an error for a plan it cannot execute, an
// outcome (violation or not) otherwise — without panicking, identically
// on a second run. Sizes are clamped so every input runs in milliseconds.
// Seed corpus under testdata/fuzz/FuzzFaultPlanJSON.
func FuzzFaultPlanJSON(f *testing.F) {
	seeds := []string{
		`{}`,
		`{"structure":"LL","variant":"Log+P+Sf","seed":1,"warmup":60,"keyspace":48,"hash_capacity":64,"graph_verts":32,"strings":16,"log_capacity":2048,"op":1,"crash_index":20,"recovery_crash":-1}`,
		`{"structure":"HM","variant":"Log+P","seed":3,"warmup":20,"keyspace":48,"hash_capacity":64,"graph_verts":32,"strings":16,"log_capacity":2048,"op":2,"crash_index":30,"fates":[{"line":1048576,"src":"cache","mask":15}],"recovery_crash":2,"recovery_fates":[{"line":1048640,"src":"wpq","mask":255}]}`,
		`{"structure":"VT","variant":"Log+P+Sf","seed":1,"warmup":8,"keyspace":48,"hash_capacity":64,"graph_verts":32,"strings":16,"log_capacity":2048,"crash_index":9,"recovery_crash":-1,"vstore_unsafe_flip":true}`,
		`{"structure":"GH","variant":"Log","seed":-4,"warmup":5,"keyspace":9,"hash_capacity":1,"graph_verts":1,"strings":2,"log_capacity":64,"op":3,"crash_index":1000}`,
		`{"structure":"AT","variant":"Log+P+Sf","keyspace":48,"hash_capacity":64,"graph_verts":32,"strings":16,"log_capacity":2048,"fates":[{"line":1048577,"src":"cache","mask":1}]}`,
		`{"structure":"RT","variant":"Base","keyspace":48,"hash_capacity":64,"graph_verts":32,"strings":16,"log_capacity":2048}`,
		`{"structure":"LL","fates":[{"src":"dram"}],"op":-1}`,
		`{"structure":7}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var p Plan
		if err := json.Unmarshal(data, &p); err != nil {
			return // not a plan; nothing to check
		}
		enc1, err := json.Marshal(p)
		if err != nil {
			t.Fatalf("encoding a decoded plan failed: %v", err)
		}
		var back Plan
		if err := json.Unmarshal(enc1, &back); err != nil {
			t.Fatalf("re-decoding plan failed: %v\n%s", err, enc1)
		}
		enc2, err := json.Marshal(back)
		if err != nil {
			t.Fatalf("re-encoding plan failed: %v", err)
		}
		if !bytes.Equal(enc1, enc2) {
			t.Fatalf("decode->encode is not a fixed point:\n%s\nvs\n%s", enc1, enc2)
		}

		p.Warmup = min(p.Warmup, 64)
		p.Op = min(p.Op, 4)
		p.Keyspace = min(p.Keyspace, 256)
		p.HashCapacity = min(p.HashCapacity, 256)
		p.GraphVerts = min(p.GraphVerts, 64)
		p.Strings = min(p.Strings, 64)
		p.LogCapacity = min(p.LogCapacity, 4096)
		p.Fates = p.Fates[:min(len(p.Fates), 64)]
		p.RecoveryFates = p.RecoveryFates[:min(len(p.RecoveryFates), 64)]
		first, err1 := Run(p)
		again, err2 := Run(p)
		if (err1 == nil) != (err2 == nil) || first != again {
			t.Fatalf("Run is not deterministic: %+v %v vs %+v %v", first, err1, again, err2)
		}
	})
}
