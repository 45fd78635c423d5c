// Package resultstore persists completed simulation results on disk in a
// content-addressed layout, so bpserved restarts and replicas sharing one
// directory start with a warm cache instead of re-simulating.
//
// Each entry is one file named by the SHA-256 of its canonical key — the
// benchmark name, the full comparable cpu.Options, and the RunConfig, plus a
// schema version — holding the key string and the experiments.Run as JSON.
// Keying on the verbatim Options value inherits the RunCache's
// complete-by-construction property: any Options field that changes
// simulation behavior yields a distinct file.
//
// The store is a cache, never a source of truth, and its failure modes are
// chosen accordingly:
//
//   - writes are atomic (temp file in the store directory, then rename), so
//     a crash mid-write leaves either the old entry or a stray temp file,
//     never a half-written entry under a live name;
//   - loads are corruption-tolerant: a truncated, garbled, or key-mismatched
//     file is counted, deleted, and reported as a miss — the next Save
//     simply rewrites it;
//   - several handles (goroutines or processes) may share one directory;
//     rename atomicity keeps every visible entry complete;
//   - occupancy is size-bounded: once resident bytes exceed MaxBytes, a GC
//     pass rescans the directory and deletes entries oldest-modification-
//     time-first until the bound holds.
//
// Because simulation results are deterministic, an entry loaded from disk is
// bit-identical to recomputing it (float64 values survive the JSON round
// trip exactly), which is what lets the serving layer keep its byte-identical
// response contract across restarts, replicas, and cold-vs-warm stores.
package resultstore

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"bpredpower/internal/cpu"
	"bpredpower/internal/experiments"
)

// schemaVersion participates in every key hash: bumping it when the entry
// layout or the meaning of Options changes orphans old files (they become
// unreferenced, GC-able junk) instead of misreading them.
const schemaVersion = 1

// DefaultMaxBytes bounds store occupancy when Config.MaxBytes is zero.
const DefaultMaxBytes = 256 << 20

// Config sets store parameters.
type Config struct {
	// MaxBytes bounds resident entry bytes (0 = DefaultMaxBytes,
	// negative = unbounded). The bound is enforced by a GC pass after the
	// Save that crosses it, so occupancy may transiently overshoot by one
	// entry.
	MaxBytes int64
}

// Store is one handle on a result directory. Handles are safe for
// concurrent use, and several handles — including ones in different
// processes — may share a directory.
type Store struct {
	dir      string
	maxBytes int64

	gcBusy atomic.Bool

	mu         sync.Mutex
	entries    int
	actEntries int
	bytes      int64
	hits       uint64
	misses     uint64
	puts       uint64
	evicted    uint64
	corrupt    uint64
}

// Stats is a point-in-time snapshot of store occupancy and traffic.
// Entries/Bytes track this handle's view (rescanned on every GC pass);
// the counters are handle-local.
type Stats struct {
	Entries int
	// ActivityEntries is how many of Entries are activity records
	// (".act.json", see activity.go) rather than run results.
	ActivityEntries int
	Bytes           int64
	Hits            uint64 // loads answered from disk
	Misses          uint64 // loads with no (usable) entry
	Puts            uint64 // entries written
	Evicted         uint64 // entries deleted by the size bound
	Corrupt         uint64 // unreadable entries dropped on load
}

// Open creates (if needed) and scans the store directory, returning a handle
// whose occupancy counters reflect the entries already on disk.
func Open(dir string, cfg Config) (*Store, error) {
	if cfg.MaxBytes == 0 {
		cfg.MaxBytes = DefaultMaxBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("resultstore: %w", err)
	}
	s := &Store{dir: dir, maxBytes: cfg.MaxBytes}
	entries, actEntries, bytes := s.scan()
	s.entries, s.actEntries, s.bytes = entries, actEntries, bytes
	return s, nil
}

// keyString renders the canonical key. %#v over the comparable Options and
// RunConfig values prints every field (exported or not), so the key is
// complete by construction — the same property the in-memory cacheKey
// relies on.
func keyString(bench string, opt cpu.Options, rc experiments.RunConfig) string {
	return fmt.Sprintf("v%d|%s|%#v|%#v", schemaVersion, bench, opt, rc)
}

// entryPath maps a key to its file: two-level fan-out on the hash so no
// single directory grows unboundedly.
func (s *Store) entryPath(key string) string {
	sum := sha256.Sum256([]byte(key))
	h := hex.EncodeToString(sum[:])
	return filepath.Join(s.dir, h[:2], h+".json")
}

// entry is the on-disk layout. Key is stored verbatim so a load can verify
// the file really holds the requested result (hash collisions, schema
// drift, or a file renamed by hand all surface as a mismatch → miss).
type entry struct {
	Key string          `json:"key"`
	Run experiments.Run `json:"run"`
}

// Load returns the stored Run for the key, if a valid entry exists. Any
// unreadable or mismatched entry is deleted and reported as a miss.
// Load and Save implement experiments.RunStore.
func (s *Store) Load(bench string, opt cpu.Options, rc experiments.RunConfig) (experiments.Run, bool) {
	key := keyString(bench, opt, rc)
	path := s.entryPath(key)
	data, err := os.ReadFile(path)
	if err != nil {
		s.count(func() { s.misses++ })
		return experiments.Run{}, false
	}
	var e entry
	if jerr := json.Unmarshal(data, &e); jerr != nil || e.Key != key {
		// Truncated write, disk corruption, or a foreign file under our
		// name: drop it so the next Save rewrites a clean entry.
		s.dropCorrupt(path)
		return experiments.Run{}, false
	}
	s.count(func() { s.hits++ })
	return e.Run, true
}

// Save writes one completed result. Failures are swallowed — the store is a
// cache, and a result that fails to persist is simply recomputed later.
func (s *Store) Save(bench string, opt cpu.Options, rc experiments.RunConfig, r experiments.Run) {
	key := keyString(bench, opt, rc)
	path := s.entryPath(key)
	data, err := json.Marshal(entry{Key: key, Run: r})
	if err != nil {
		return
	}
	data = append(data, '\n')
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return
	}
	prev, hadPrev := int64(0), false
	if fi, err := os.Stat(path); err == nil {
		prev, hadPrev = fi.Size(), true
	}
	if !s.writeAtomic(path, data) {
		return
	}
	gc := false
	s.mu.Lock()
	s.puts++
	if hadPrev {
		s.bytes += int64(len(data)) - prev
	} else {
		s.entries++
		s.bytes += int64(len(data))
	}
	gc = s.maxBytes > 0 && s.bytes > s.maxBytes
	s.mu.Unlock()
	if gc {
		s.gc()
	}
}

// writeAtomic publishes data at path via a temp file in the store directory
// (same filesystem, so the rename is atomic): a reader never observes a
// partial entry, and a crash leaves at worst a stray ".put-*" temp file.
func (s *Store) writeAtomic(path string, data []byte) bool {
	tmp, err := os.CreateTemp(s.dir, ".put-*")
	if err != nil {
		return false
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return false
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return false
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return false
	}
	return true
}

// dropCorrupt deletes an unreadable entry, counts the miss, and recounts
// occupancy from the directory. Decrementing this handle's counters instead
// would drive them negative whenever the file was written by another handle
// after this one's Open; the rescan is as rare as corruption itself.
func (s *Store) dropCorrupt(path string) {
	os.Remove(path)
	entries, actEntries, bytes := s.scan()
	s.mu.Lock()
	s.corrupt++
	s.misses++
	s.entries, s.actEntries, s.bytes = entries, actEntries, bytes
	s.mu.Unlock()
}

// count runs a counter mutation under the lock.
func (s *Store) count(fn func()) {
	s.mu.Lock()
	fn()
	s.mu.Unlock()
}

// Stats snapshots the handle's counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Entries:         s.entries,
		ActivityEntries: s.actEntries,
		Bytes:           s.bytes,
		Hits:            s.hits,
		Misses:          s.misses,
		Puts:            s.puts,
		Evicted:         s.evicted,
		Corrupt:         s.corrupt,
	}
}

// scanned is one on-disk entry observed by a directory walk.
type scanned struct {
	path  string
	size  int64
	mtime int64 // UnixNano; ordering key only, never fed into results
	act   bool  // activity record (".act.json") vs run result
}

// list walks the store directory collecting entry files. Stray temp files
// and unreadable paths are skipped.
func (s *Store) list() []scanned {
	var out []scanned
	filepath.WalkDir(s.dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".json") {
			return nil
		}
		fi, err := d.Info()
		if err != nil {
			return nil
		}
		out = append(out, scanned{path: path, size: fi.Size(), mtime: fi.ModTime().UnixNano(), act: strings.HasSuffix(path, ".act.json")})
		return nil
	})
	return out
}

// scan totals the directory for Open and for dropCorrupt.
func (s *Store) scan() (entries, actEntries int, bytes int64) {
	for _, e := range s.list() {
		entries++
		if e.act {
			actEntries++
		}
		bytes += e.size
	}
	return entries, actEntries, bytes
}

// gc rescans the directory (so concurrent handles' writes are counted
// truthfully) and deletes entries oldest-first until the byte bound holds.
// Only one GC pass runs per handle at a time; Load/Save proceed
// concurrently — a load racing a delete is just a miss.
func (s *Store) gc() {
	if !s.gcBusy.CompareAndSwap(false, true) {
		return // a pass is already running; it will see the new bytes
	}
	defer s.gcBusy.Store(false)
	files := s.list()
	var total int64
	for _, f := range files {
		total += f.size
	}
	sort.Slice(files, func(i, j int) bool {
		if files[i].mtime != files[j].mtime {
			return files[i].mtime < files[j].mtime
		}
		return files[i].path < files[j].path
	})
	var evicted uint64
	entries := len(files)
	actEntries := 0
	for _, f := range files {
		if f.act {
			actEntries++
		}
	}
	for _, f := range files {
		if total <= s.maxBytes {
			break
		}
		if os.Remove(f.path) == nil {
			total -= f.size
			entries--
			if f.act {
				actEntries--
			}
			evicted++
		}
	}
	s.mu.Lock()
	s.entries = entries
	s.actEntries = actEntries
	s.bytes = total
	s.evicted += evicted
	s.mu.Unlock()
}
