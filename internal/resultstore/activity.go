package resultstore

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"bpredpower/internal/cpu"
	"bpredpower/internal/experiments"
)

// Activity records share the result store's directory, layout, and GC: one
// content-addressed file per execution key, named with an ".act.json" suffix
// so a directory scan can classify the two entry kinds while the size bound
// treats them uniformly. LoadActivity/SaveActivity implement
// experiments.ActivityStore, which is what lets replicas sharing one store
// reprice each other's base simulations instead of re-running them.

// activityKeyString is keyString for the activity plane. The "act|"
// discriminator keeps the two key spaces disjoint under one schema version.
func activityKeyString(bench string, opt cpu.Options, rc experiments.RunConfig) string {
	return fmt.Sprintf("v%d|act|%s|%#v|%#v", schemaVersion, bench, opt, rc)
}

// activityPath maps an activity key to its file, with the same two-level
// hash fan-out as entryPath.
func (s *Store) activityPath(key string) string {
	return strings.TrimSuffix(s.entryPath(key), ".json") + ".act.json"
}

// actFileEntry is the on-disk layout of one activity record; Key is stored
// verbatim for the same self-verification as entry.Key.
type actFileEntry struct {
	Key    string                     `json:"key"`
	Record experiments.ActivityRecord `json:"record"`
}

// LoadActivity returns the stored activity record for the execution key, if
// a valid entry exists, with Load's corruption tolerance: any unreadable or
// mismatched file is deleted and reported as a miss.
func (s *Store) LoadActivity(bench string, opt cpu.Options, rc experiments.RunConfig) (experiments.ActivityRecord, bool) {
	key := activityKeyString(bench, opt, rc)
	path := s.activityPath(key)
	data, err := os.ReadFile(path)
	if err != nil {
		s.count(func() { s.misses++ })
		return experiments.ActivityRecord{}, false
	}
	var e actFileEntry
	if jerr := json.Unmarshal(data, &e); jerr != nil || e.Key != key {
		s.dropCorrupt(path)
		return experiments.ActivityRecord{}, false
	}
	s.count(func() { s.hits++ })
	return e.Record, true
}

// SaveActivity writes one activity record with Save's atomic-publish
// discipline; failures are swallowed (the record is recomputed later).
func (s *Store) SaveActivity(bench string, opt cpu.Options, rc experiments.RunConfig, rec experiments.ActivityRecord) {
	key := activityKeyString(bench, opt, rc)
	path := s.activityPath(key)
	data, err := json.Marshal(actFileEntry{Key: key, Record: rec})
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
		s.actEntries++
		s.bytes += int64(len(data))
	}
	gc = s.maxBytes > 0 && s.bytes > s.maxBytes
	s.mu.Unlock()
	if gc {
		s.gc()
	}
}
