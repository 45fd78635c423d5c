package service

import (
	"context"
	"sync"
)

// maxFinishedJobs bounds how many completed sweep jobs the registry retains
// for replay; the oldest unwatched finished jobs are evicted first.
// In-flight or watched jobs are never evicted.
const maxFinishedJobs = 128

// sweepJob is one sweep's append-only transcript: the header line, the
// per-point result lines in grid order, and a final trailer (summary or
// error). Watchers — the creating POST stream and any number of GET replays
// — read the transcript concurrently while the runner appends to it, so a
// replay of a finished or in-flight job yields exactly the bytes the
// original stream carries.
//
// The job also owns its cancellation: the runner's context is canceled when
// the watcher count drops to zero before the trailer is set (every client
// went away → stop simulating; ForEachCtx claims no new grid points, and
// running simulations observe the cancellation within one chunk).
type sweepJob struct {
	id     string
	header []byte
	cancel context.CancelFunc

	mu       sync.Mutex
	lines    [][]byte
	trailer  []byte
	failed   bool
	watchers int
	change   chan struct{} // closed on every append; replaced while running
}

func newSweepJob(id string, header []byte, cancel context.CancelFunc) *sweepJob {
	return &sweepJob{id: id, header: header, cancel: cancel, change: make(chan struct{})}
}

// append publishes one finalized line and wakes every watcher.
func (j *sweepJob) append(line []byte) {
	j.mu.Lock()
	j.lines = append(j.lines, line)
	close(j.change)
	j.change = make(chan struct{})
	j.mu.Unlock()
}

// finish seals the transcript with its trailer. The change channel is closed
// and never replaced, so present and future watchers wake immediately. The
// runner context is canceled to release its deadline timer.
func (j *sweepJob) finish(trailer []byte, failed bool) {
	j.mu.Lock()
	if j.trailer == nil {
		j.trailer = trailer
		j.failed = failed
		close(j.change)
	}
	j.mu.Unlock()
	j.cancel()
}

// snapshot returns the lines not yet seen by a watcher that has consumed
// `from` lines, the trailer (nil while running), and the channel that will
// be closed on the next append. lines slices are append-only, so the
// returned view is immutable.
func (j *sweepJob) snapshot(from int) (lines [][]byte, trailer []byte, change chan struct{}) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.lines[from:], j.trailer, j.change
}

// done reports whether the trailer is set; ok additionally requires it to be
// a success summary.
func (j *sweepJob) done() (done, ok bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.trailer != nil, j.trailer != nil && !j.failed
}

// acquire registers a watcher.
func (j *sweepJob) acquire() {
	j.mu.Lock()
	j.watchers++
	j.mu.Unlock()
}

// release deregisters a watcher; the last watcher leaving an unfinished job
// cancels it (nobody is listening — the runner will seal it with a
// cancellation trailer).
func (j *sweepJob) release() {
	j.mu.Lock()
	j.watchers--
	abandon := j.watchers == 0 && j.trailer == nil
	j.mu.Unlock()
	if abandon {
		j.cancel()
	}
}

// idle reports whether the job is finished with no active watchers — the
// only state eligible for registry eviction.
func (j *sweepJob) idle() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.trailer != nil && j.watchers == 0
}

// registerJob installs a job in the registry (replacing any previous job
// under the id — the caller decides replacement policy) and evicts the
// oldest idle jobs beyond the retention bound.
func (s *Server) registerJob(job *sweepJob) {
	s.jobsMu.Lock()
	defer s.jobsMu.Unlock()
	if _, ok := s.jobs[job.id]; !ok {
		s.jobOrder = append(s.jobOrder, job.id)
	}
	s.jobs[job.id] = job
	if len(s.jobs) <= maxFinishedJobs {
		return
	}
	kept := s.jobOrder[:0]
	excess := len(s.jobs) - maxFinishedJobs
	for _, id := range s.jobOrder {
		if excess > 0 && id != job.id && s.jobs[id].idle() {
			delete(s.jobs, id)
			excess--
			continue
		}
		kept = append(kept, id)
	}
	s.jobOrder = kept
}

// lookupJob returns the registered job and registers the caller as a
// watcher while still holding the registry lock, so a job can never be
// evicted between lookup and acquire.
func (s *Server) lookupJob(id string) (*sweepJob, bool) {
	s.jobsMu.Lock()
	defer s.jobsMu.Unlock()
	j, ok := s.jobs[id]
	if ok {
		j.acquire()
	}
	return j, ok
}
