package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestServerStopsCleanly: a batserve started by the benchmark drains on
// SIGTERM with exit status 0 and leaves no process behind, run after run.
func TestServerStopsCleanly(t *testing.T) {
	if testing.Short() {
		t.Skip("builds batserve")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "batserve")
	if out, err := exec.Command("go", "build", "-o", bin, "batsched/cmd/batserve").CombinedOutput(); err != nil {
		t.Fatalf("build batserve: %v\n%s", err, out)
	}
	cfg := serverConfig{bin: bin, store: filepath.Join(dir, "store.ndjson"), dir: dir, procs: 2}
	for n := 0; n < 3; n++ {
		srv, setup, err := startServer(cfg, n)
		if err != nil {
			t.Fatal(err)
		}
		if setup <= 0 {
			t.Fatalf("set-up time %v", setup)
		}
		pid := srv.cmd.Process.Pid
		if err := srv.stop(); err != nil {
			t.Fatalf("run %d: %v", n, err)
		}
		if _, err := os.Stat(filepath.Join("/proc", itoa(pid))); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("run %d: process %d still exists after stop (%v)", n, pid, err)
		}
	}
}

func itoa(n int) string { return string(mustJSON(n)) }
