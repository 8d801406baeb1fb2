package serve

import (
	"context"
	"fmt"
	"sync"
	"time"

	"computecovid19/internal/obs"
	"computecovid19/internal/volume"
)

// State is a job's lifecycle position.
type State string

// Job states, in lifecycle order. Failed covers both pipeline errors and
// deadline expiry (the error message distinguishes them).
const (
	StateQueued  State = "queued"
	StateRunning State = "running"
	StateDone    State = "done"
	StateFailed  State = "failed"
)

// job is one accepted scan request. All mutable fields are guarded by
// the owning store's mutex. The trace fields are written once in
// handleSubmit before the job is enqueued and read by the worker: ctx
// detaches the request's trace from the HTTP request context (so
// processing survives client disconnects), span is the request root
// (ended last, completing the trace in the flight recorder), qspan
// covers the admission-queue wait. A job that reaches a terminal state
// keeps only what a poll reports: its volume and trace references are
// dropped there (the worker works from its own copies).
type job struct {
	id        string
	vol       *volume.Volume
	key       string
	submitted time.Time
	deadline  time.Time
	// preEnhanced marks a volume that already went through Enhancement
	// AI (sharded gateway reassembly); the worker skips that stage.
	// Written once in handleSubmit before enqueue, read by the worker.
	preEnhanced bool

	ctx   context.Context
	span  *obs.Span
	qspan *obs.Span

	state    State
	cached   bool
	result   *ScanResult
	err      string
	finished time.Time
}

// JobView is the client-facing JSON rendering of a job.
type JobView struct {
	ID        string      `json:"id"`
	State     State       `json:"state"`
	Cached    bool        `json:"cached,omitempty"`
	Result    *ScanResult `json:"result,omitempty"`
	Error     string      `json:"error,omitempty"`
	ElapsedMS float64     `json:"elapsed_ms"`
}

// retainedJobs is how many finished (done or failed) jobs stay
// pollable. Past it the oldest-finished is forgotten and its id polls
// as 404, exactly like an id that never existed — so a client must
// fetch its result before retainedJobs later scans complete, which at
// a poll interval of milliseconds is hours of slack, while a replica
// that runs for months holds a bounded number of job records.
const retainedJobs = 1024

// store tracks the jobs the server has accepted, by id: every job in
// flight, plus the retainedJobs most recently finished.
type store struct {
	mu   sync.Mutex
	seq  uint64
	jobs map[string]*job
	// finished holds the ids of terminal jobs still in jobs, oldest
	// first.
	finished []string
}

func newStore() *store {
	return &store{jobs: make(map[string]*job)}
}

func (st *store) newJob(vol *volume.Volume, key string, deadline time.Time) *job {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.seq++
	j := &job{
		id:        fmt.Sprintf("scan-%06d", st.seq),
		vol:       vol,
		key:       key,
		submitted: time.Now(),
		deadline:  deadline,
		state:     StateQueued,
	}
	st.jobs[j.id] = j
	return j
}

// drop removes a job that was never admitted (queue full, draining).
func (st *store) drop(j *job) {
	st.mu.Lock()
	defer st.mu.Unlock()
	delete(st.jobs, j.id)
}

func (st *store) setRunning(j *job) {
	st.mu.Lock()
	defer st.mu.Unlock()
	j.state = StateRunning
}

func (st *store) finish(j *job, res ScanResult) {
	st.mu.Lock()
	defer st.mu.Unlock()
	j.state = StateDone
	j.result = &res
	st.retireLocked(j)
}

// finishCached completes a job from a cache hit, before it ever queued.
func (st *store) finishCached(j *job, res ScanResult) {
	st.mu.Lock()
	defer st.mu.Unlock()
	j.state = StateDone
	j.cached = true
	j.result = &res
	st.retireLocked(j)
}

func (st *store) fail(j *job, msg string) {
	st.mu.Lock()
	defer st.mu.Unlock()
	j.state = StateFailed
	j.err = msg
	st.retireLocked(j)
}

// retireLocked is the terminal transition's bookkeeping: stamp the
// finish time, release the input volume and the trace, and forget the
// oldest-finished job once more than retainedJobs are kept.
func (st *store) retireLocked(j *job) {
	j.finished = time.Now()
	j.vol, j.ctx, j.span, j.qspan = nil, nil, nil, nil
	st.finished = append(st.finished, j.id)
	if len(st.finished) > retainedJobs {
		delete(st.jobs, st.finished[0])
		st.finished = st.finished[1:]
	}
}

func (st *store) view(j *job) JobView {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.viewLocked(j)
}

func (st *store) viewByID(id string) (JobView, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	j, ok := st.jobs[id]
	if !ok {
		return JobView{}, false
	}
	return st.viewLocked(j), true
}

func (st *store) viewLocked(j *job) JobView {
	end := j.finished
	if end.IsZero() {
		end = time.Now()
	}
	return JobView{
		ID:        j.id,
		State:     j.state,
		Cached:    j.cached,
		Result:    j.result,
		Error:     j.err,
		ElapsedMS: end.Sub(j.submitted).Seconds() * 1e3,
	}
}

// counts tallies jobs by state — the drain test's bookkeeping.
func (st *store) counts() map[State]int {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make(map[State]int)
	for _, j := range st.jobs {
		out[j.state]++
	}
	return out
}
