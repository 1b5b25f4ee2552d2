package cluster

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// checkGolden compares got with testdata/name, or rewrites the file under
// -update:
//
//	go test ./internal/cluster -run Tiny -update
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s changed:\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}
