package main

import (
	"bytes"
	"io/fs"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

// Every package under internal/ must land in a named module, so a new
// package can never silently fall into "other".
func TestEveryRepoPackageMapsToAModule(t *testing.T) {
	seen := 0
	err := filepath.WalkDir("../internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		rel, err := filepath.Rel("..", filepath.Dir(path))
		if err != nil {
			return err
		}
		fn := "cohmeleon/" + filepath.ToSlash(rel) + ".(*T).Method"
		if m := frameModule(fn); m == "" || m == "other" {
			t.Errorf("%s maps to %q", fn, m)
		}
		seen++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if seen == 0 {
		t.Fatal("found no repo packages")
	}
}

func TestModuleOfChargesHelpersToTheirCaller(t *testing.T) {
	for _, tc := range []struct {
		stack []string
		want  string
	}{
		{[]string{"cohmeleon/internal/cache.(*Directory).AccessOrInsertRun", "cohmeleon/internal/soc.(*SoC).run"}, "cache"},
		{[]string{"runtime.memmove", "runtime.growslice", "cohmeleon/internal/noc.(*Mesh).Transfer"}, "noc"},
		{[]string{"cohmeleon/internal/soc/protocol.Lookup"}, "soc"},
		{[]string{"crypto/sha256.block", "crypto/sha256.(*digest).Write", "cohmeleon/internal/experiment.writeBlobAtomic"}, "experiment"},
		{[]string{"encoding/json.(*encodeState).marshal", "cohmeleon/internal/server.writeJSON"}, "server"},
		{[]string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "cohmeleon/internal/workload.Generate"}, "runtime.gc"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker", "runtime.goexit"}, "runtime.gc"},
		{[]string{"runtime.futex", "runtime.futexsleep", "runtime.notesleep", "runtime.stopm"}, "runtime.sched"},
		{[]string{"runtime.chanrecv", "runtime.chanrecv1", "cohmeleon/internal/sim.(*Proc).Delay"}, "runtime.sched"},
		{[]string{"internal/runtime/syscall.Syscall6", "syscall.Syscall", "os.(*File).Write", "cohmeleon/internal/experiment.writeBlobAtomic"}, "runtime.syscall"},
		{[]string{"main.run", "runtime.main"}, "bench"},
		{[]string{"runtime/pprof.(*profileBuilder).addCPUData", "runtime/pprof.profileWriter"}, "bench"},
		{[]string{"bufio.(*Reader).Read", "net/http.(*conn).serve", "runtime.goexit"}, "net"},
		{[]string{"runtime.goexit"}, "other"},
		{nil, "other"},
	} {
		if got := moduleOf(tc.stack); got != tc.want {
			t.Errorf("moduleOf(%v) = %q, want %q", tc.stack, got, tc.want)
		}
	}
}

func TestPackageOf(t *testing.T) {
	for fn, want := range map[string]string{
		"cohmeleon/internal/cache.(*Directory).AccessOrInsertRun": "cohmeleon/internal/cache",
		"cohmeleon/internal/soc/protocol.Lookup":                  "cohmeleon/internal/soc/protocol",
		"runtime.mallocgc":                                        "runtime",
		"internal/runtime/syscall.Syscall6":                       "internal/runtime/syscall",
		"net/http.(*conn).serve":                                  "net/http",
		"cohmeleon/internal/experiment.runGrid[...].func1":        "cohmeleon/internal/experiment",
	} {
		if got := packageOf(fn); got != want {
			t.Errorf("packageOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

//go:noinline
func spin(d time.Duration) int {
	n := 0
	for end := time.Now().Add(d); time.Now().Before(end); n++ {
	}
	return n
}

// A real CPU profile from this process decodes and attributes its
// samples; the busy loop is the benchmark's own code.
func TestParseProfileOfThisProcess(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	spin(500 * time.Millisecond)
	pprof.StopCPUProfile()
	p, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	led, total := attribute(p)
	if total <= 0 || len(p.stacks) == 0 {
		t.Fatalf("no samples decoded (total %v)", total)
	}
	if led["bench"] <= 0 {
		t.Errorf("busy loop not attributed to bench: %v", led)
	}
	if _, err := parseProfile([]byte{0xff, 0x01}); err == nil {
		t.Error("garbage profile accepted")
	}
}
