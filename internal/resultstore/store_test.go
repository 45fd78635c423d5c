package resultstore

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"bpredpower/internal/bpred"
	"bpredpower/internal/cpu"
	"bpredpower/internal/experiments"
)

// fakeRun builds a distinguishable Run for key i.
func fakeRun(i int) experiments.Run {
	return experiments.Run{
		Benchmark:   fmt.Sprintf("bench-%d", i),
		Machine:     "test",
		Accuracy:    0.5 + float64(i)/1000,
		IPC:         1.25,
		BpredPower:  0.125 + float64(i),
		TotalPower:  40.5,
		BpredEnergy: 1e-6 * float64(i+1),
		TotalEnergy: 2e-4,
		EnergyDelay: 3.0000000000000004e-8, // exercise float64 round-trip exactness
		CondFreq:    0.14,
		Fetched:     uint64(100000 + i),
		Committed:   uint64(60000 + i),
	}
}

func optFor(i int) cpu.Options {
	return cpu.Options{Predictor: bpred.Hybrid1, BankedPredictor: i%2 == 1}
}

func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	rc := experiments.Quick
	want := fakeRun(0)

	if _, ok := s.Load("164.gzip", optFor(0), rc); ok {
		t.Fatal("load on empty store reported a hit")
	}
	s.Save("164.gzip", optFor(0), rc, want)
	got, ok := s.Load("164.gzip", optFor(0), rc)
	if !ok {
		t.Fatal("load after save missed")
	}
	if got != want {
		t.Fatalf("round-trip mismatch:\n got %+v\nwant %+v", got, want)
	}

	// A different Options value must not alias.
	if _, ok := s.Load("164.gzip", optFor(1), rc); ok {
		t.Fatal("distinct Options aliased to the same entry")
	}
	// Nor a different RunConfig.
	if _, ok := s.Load("164.gzip", optFor(0), experiments.Default); ok {
		t.Fatal("distinct RunConfig aliased to the same entry")
	}

	st := s.Stats()
	if st.Hits != 1 || st.Misses != 3 || st.Puts != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 3 misses / 1 put / 1 entry", st)
	}
}

// TestTwoHandles exercises the cross-process story: replica B sees what
// replica A wrote, and vice versa, through independent handles on one
// directory.
func TestTwoHandles(t *testing.T) {
	dir := t.TempDir()
	a, err := Open(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	rc := experiments.Quick
	a.Save("164.gzip", optFor(0), rc, fakeRun(1))

	b, err := Open(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if st := b.Stats(); st.Entries != 1 {
		t.Fatalf("second handle scanned %d entries, want 1", st.Entries)
	}
	got, ok := b.Load("164.gzip", optFor(0), rc)
	if !ok || got != fakeRun(1) {
		t.Fatalf("second handle load = %+v ok=%v", got, ok)
	}
	b.Save("175.vpr", optFor(0), rc, fakeRun(2))
	if got, ok := a.Load("175.vpr", optFor(0), rc); !ok || got != fakeRun(2) {
		t.Fatalf("first handle missed the second handle's write: %+v ok=%v", got, ok)
	}
}

// TestCorruptionTolerated covers the crash-safety contract: truncated or
// garbled entries are misses, get deleted, and the next Save rewrites them.
func TestCorruptionTolerated(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	rc := experiments.Quick
	s.Save("164.gzip", optFor(0), rc, fakeRun(3))
	path := s.entryPath(keyString("164.gzip", optFor(0), rc))

	for name, mutate := range map[string]func() error{
		"truncated": func() error {
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			return os.WriteFile(path, data[:len(data)/2], 0o644)
		},
		"garbled": func() error {
			return os.WriteFile(path, []byte("{\"key\":\"wrong\",\"run\":{}}\n"), 0o644)
		},
		"empty": func() error {
			return os.WriteFile(path, nil, 0o644)
		},
	} {
		if err := mutate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, ok := s.Load("164.gzip", optFor(0), rc); ok {
			t.Fatalf("%s entry loaded as a hit", name)
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Fatalf("%s entry not deleted on load", name)
		}
		// The next Save must bring the entry back, readable.
		s.Save("164.gzip", optFor(0), rc, fakeRun(3))
		if got, ok := s.Load("164.gzip", optFor(0), rc); !ok || got != fakeRun(3) {
			t.Fatalf("rewrite after %s corruption failed: %+v ok=%v", name, got, ok)
		}
	}
	if st := s.Stats(); st.Corrupt != 3 {
		t.Fatalf("corrupt counter = %d, want 3", st.Corrupt)
	}
}

// TestCorruptDropCountsTruthfully: a handle that drops a corrupt entry it
// never counted — another handle on the shared directory wrote it after this
// one's Open — must still report the directory's real occupancy, never a
// negative one.
func TestCorruptDropCountsTruthfully(t *testing.T) {
	dir := t.TempDir()
	a, err := Open(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Open(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	rc := experiments.Quick
	a.Save("164.gzip", optFor(0), rc, fakeRun(0))
	b.Save("175.vpr", optFor(0), rc, fakeRun(1))
	b.SaveActivity("175.vpr", optFor(1), rc, fakeActivity(1))

	corrupt := func(path string) {
		t.Helper()
		if err := os.WriteFile(path, []byte("{garbage"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	check := func(when string) {
		t.Helper()
		got := a.Stats()
		fresh, err := Open(dir, Config{})
		if err != nil {
			t.Fatal(err)
		}
		want := fresh.Stats()
		if got.Entries < 0 || got.ActivityEntries < 0 || got.Bytes < 0 {
			t.Fatalf("%s: negative occupancy %+v", when, got)
		}
		if got.Entries != want.Entries || got.ActivityEntries != want.ActivityEntries || got.Bytes != want.Bytes {
			t.Fatalf("%s: occupancy %d entries / %d activity / %d bytes, directory holds %d / %d / %d",
				when, got.Entries, got.ActivityEntries, got.Bytes, want.Entries, want.ActivityEntries, want.Bytes)
		}
	}

	corrupt(a.activityPath(activityKeyString("175.vpr", optFor(1), rc)))
	if _, ok := a.LoadActivity("175.vpr", optFor(1), rc); ok {
		t.Fatal("corrupt activity entry reported a hit")
	}
	check("after dropping the other handle's activity entry")

	corrupt(a.entryPath(keyString("175.vpr", optFor(0), rc)))
	if _, ok := a.Load("175.vpr", optFor(0), rc); ok {
		t.Fatal("corrupt run entry reported a hit")
	}
	check("after dropping the other handle's run entry")
	if st := a.Stats(); st.Entries != 1 || st.Corrupt != 2 {
		t.Fatalf("stats = %+v, want 1 entry left and 2 corrupt drops", st)
	}
}

// TestStrayTempIgnored: a temp file left by a crashed writer must not count
// as an entry or break a scan.
func TestStrayTempIgnored(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, ".put-12345"), []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Entries != 0 {
		t.Fatalf("stray temp counted as %d entries", st.Entries)
	}
}

func TestGCBound(t *testing.T) {
	dir := t.TempDir()
	// Measure one entry's size, then bound the store to about three.
	probe, err := Open(dir, Config{MaxBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	rc := experiments.Quick
	probe.Save("probe", optFor(0), rc, fakeRun(0))
	entrySize := probe.Stats().Bytes
	if entrySize == 0 {
		t.Fatal("probe entry has zero size")
	}
	os.RemoveAll(dir)

	s, err := Open(dir, Config{MaxBytes: 3*entrySize + entrySize/2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		s.Save(fmt.Sprintf("bench-%d", i), optFor(0), rc, fakeRun(i))
	}
	st := s.Stats()
	if st.Bytes > 3*entrySize+entrySize/2 {
		t.Fatalf("store holds %d bytes, bound is %d", st.Bytes, 3*entrySize+entrySize/2)
	}
	if st.Evicted == 0 {
		t.Fatal("GC evicted nothing despite exceeding the bound")
	}
	if st.Entries == 0 {
		t.Fatal("GC emptied the store; newest entries should survive")
	}
	// The most recent write should still be resident (oldest-first policy).
	if _, ok := s.Load("bench-7", optFor(0), rc); !ok {
		t.Error("newest entry evicted; GC should delete oldest-first")
	}
}

func TestUnboundedNeverGCs(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Config{MaxBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	rc := experiments.Quick
	for i := 0; i < 16; i++ {
		s.Save(fmt.Sprintf("bench-%d", i), optFor(0), rc, fakeRun(i))
	}
	if st := s.Stats(); st.Evicted != 0 || st.Entries != 16 {
		t.Fatalf("unbounded store evicted: %+v", st)
	}
}

// TestGCUnderLoad races concurrent Saves and Loads against GC passes from
// two handles; run under -race this is the store's concurrency audit. The
// only invariant strong enough to hold under eviction is "no torn reads":
// every Load either misses or returns the exact Run that was saved.
func TestGCUnderLoad(t *testing.T) {
	dir := t.TempDir()
	open := func() *Store {
		s, err := Open(dir, Config{MaxBytes: 2048})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	h1, h2 := open(), open()
	rc := experiments.Quick

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := h1
			if w%2 == 1 {
				s = h2
			}
			for i := 0; i < 50; i++ {
				k := (w*50 + i) % 20
				s.Save(fmt.Sprintf("bench-%d", k), optFor(0), rc, fakeRun(k))
				if got, ok := s.Load(fmt.Sprintf("bench-%d", k), optFor(0), rc); ok && got != fakeRun(k) {
					t.Errorf("torn read: key %d returned %+v", k, got)
				}
			}
		}(w)
	}
	wg.Wait()

	// Post-race, a fresh handle must be able to read every surviving entry.
	h3 := open()
	for i := 0; i < 20; i++ {
		if got, ok := h3.Load(fmt.Sprintf("bench-%d", i), optFor(0), rc); ok && got != fakeRun(i) {
			t.Errorf("survivor %d corrupt: %+v", i, got)
		}
	}
}

// TestKeyStringComplete guards the complete-by-construction property: the
// rendered key must mention every exported Options field name, so a new
// field can't silently alias entries.
func TestKeyStringComplete(t *testing.T) {
	key := keyString("164.gzip", cpu.Options{Predictor: bpred.Hybrid1}, experiments.Quick)
	for _, field := range []string{"Predictor", "BankedPredictor", "WarmupInsts", "MeasureInsts"} {
		if !strings.Contains(key, field) {
			t.Errorf("keyString omits %s: %q", field, key)
		}
	}
	if !strings.HasPrefix(key, fmt.Sprintf("v%d|", schemaVersion)) {
		t.Errorf("keyString missing schema version prefix: %q", key)
	}
}

func TestOpenOnFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "not-a-dir")
	if err := os.WriteFile(path, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path, Config{}); err == nil {
		t.Fatal("Open on a regular file succeeded")
	}
}
