// Package service is the long-running, multi-client layer over the
// streaming runner: cmd/experimentd exposes it over HTTP. It owns the
// shared execution state one machine has exactly one of — a bounded
// worker pool, a content-addressed artifact store, a checkpoint
// directory — and runs every accepted job against them.
//
// The headline contract is determinism: a job's final report is
// byte-identical to a solo cmd/experiments run of the same spec, no
// matter how many jobs interleave, how wide the pool is, or how many
// times the daemon is killed and restarted mid-job. Everything here is
// arranged to preserve the runner's existing guarantees, not add new
// ones: jobs are persisted before they run, journals make interruption
// safe, and jobs that would contend for one checkpoint journal are
// serialized in-process instead of tripping the journal flock.
package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/durable"
	"repro/internal/experiments"
	"repro/internal/runner"
)

// JobState is a job's lifecycle position. queued -> running -> done or
// failed; done and failed are terminal.
type JobState string

const (
	StateQueued  JobState = "queued"
	StateRunning JobState = "running"
	StateDone    JobState = "done"
	StateFailed  JobState = "failed"
)

func (s JobState) terminal() bool { return s == StateDone || s == StateFailed }

// errShuttingDown rejects submissions to a closing service (HTTP 503,
// not 400: the spec may be fine).
var errShuttingDown = errors.New("service: shutting down")

// specError is a Submit error that Resolve raised: the client's spec,
// not the daemon, is at fault (HTTP 400). Any other Submit error but
// errShuttingDown is the daemon's own (HTTP 500).
type specError struct{ err error }

func (e specError) Error() string { return e.err.Error() }
func (e specError) Unwrap() error { return e.err }

// Config configures a Service.
type Config struct {
	// StateDir is the service's persistent root. It gains three
	// subdirectories: jobs/ (specs, reports, failures), checkpoints/
	// (runner journals), artifacts/ (the shared disk artifact store).
	StateDir string
	// Parallel bounds concurrent trial execution across ALL jobs
	// (the shared pool's width); <= 0 means GOMAXPROCS.
	Parallel int
	// ArtifactMaxBytes, when > 0, caps the shared disk artifact store's
	// files with LRU eviction. It does not bound memory, which needs no
	// cap: the store keeps a machine in memory only while a running job's
	// trials can use it (see experiments.ArtifactStore), and a later job
	// loads it back from its file.
	ArtifactMaxBytes int64
	// Logf, when non-nil, receives one line per job lifecycle edge.
	Logf func(format string, args ...any)
}

// Service accepts, persists, and executes jobs. Create with Open.
type Service struct {
	cfg     Config
	jobsDir string
	ckptDir string
	pool    *runner.Pool
	store   *experiments.ArtifactStore

	mu       sync.Mutex
	jobs     map[string]*job
	order    []string // submission order, for listing
	journals map[string]*sync.Mutex
	closed   bool
	wg       sync.WaitGroup
}

// job is the in-memory record of one accepted job. All mutable fields
// are guarded by Service.mu.
type job struct {
	id  string
	res Resolved

	state       JobState
	errMsg      string
	report      []byte
	failedUnits int

	totalTrials   int
	doneTrials    int
	resumedTrials int
	failedTrials  int

	createdAt  time.Time
	finishedAt time.Time

	events  []Event
	subs    map[int]chan Event
	nextSub int
}

// JobStatus is the wire form of a job's state (GET /v1/jobs/{id}).
type JobStatus struct {
	ID    string   `json:"id"`
	State JobState `json:"state"`
	Spec  JobSpec  `json:"spec"`
	// Error is the harness-level failure of a failed job. Individual
	// experiment/cell failures do NOT fail the job — they are recorded
	// inside the report (and counted in FailedUnits), exactly as a solo
	// run records them.
	Error string `json:"error,omitempty"`
	// Units is the number of experiments or grid cells the job spans.
	Units int `json:"units"`
	// TotalTrials = Units x Trials; DoneTrials counts delivered
	// outcomes, of which ResumedTrials were replayed from a checkpoint
	// journal rather than executed.
	TotalTrials   int `json:"total_trials"`
	DoneTrials    int `json:"done_trials"`
	ResumedTrials int `json:"resumed_trials"`
	FailedTrials  int `json:"failed_trials"`
	FailedUnits   int `json:"failed_units"`

	CreatedAt  time.Time  `json:"created_at"`
	FinishedAt *time.Time `json:"finished_at,omitempty"`
}

// Open creates the state directory layout, adopts every persisted job —
// finished jobs keep their reports; unfinished jobs re-enqueue and
// resume from their checkpoint journals — and returns a Service ready
// to accept submissions.
func Open(cfg Config) (*Service, error) {
	if cfg.StateDir == "" {
		return nil, fmt.Errorf("service: state dir required")
	}
	jobsDir := filepath.Join(cfg.StateDir, "jobs")
	ckptDir := filepath.Join(cfg.StateDir, "checkpoints")
	artDir := filepath.Join(cfg.StateDir, "artifacts")
	// The store checks its size cap before it creates artifacts/ (and
	// with it the state dir), so a rejected config leaves no directory.
	store, err := experiments.NewDiskArtifactStore(artDir, cfg.ArtifactMaxBytes)
	if err != nil {
		return nil, fmt.Errorf("service: %w", err)
	}
	for _, d := range []string{jobsDir, ckptDir} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, fmt.Errorf("service: %w", err)
		}
	}
	s := &Service{
		cfg:      cfg,
		jobsDir:  jobsDir,
		ckptDir:  ckptDir,
		pool:     runner.NewPool(cfg.Parallel),
		store:    store,
		jobs:     make(map[string]*job),
		journals: make(map[string]*sync.Mutex),
	}
	if err := s.recover(); err != nil {
		return nil, err
	}
	return s, nil
}

// recover re-adopts persisted jobs after a restart. A spec file whose
// report exists and decodes is done; one with a persisted failure is
// failed; the rest were interrupted mid-run and re-enqueue with the
// checkpoint journal carrying whatever they had completed. An
// undecodable report is deleted and its job re-enqueued: the journal
// replays it to the same bytes, where serving it would hand out a
// corrupt report as done.
func (s *Service) recover() error {
	ents, err := os.ReadDir(s.jobsDir)
	if err != nil {
		return fmt.Errorf("service: %w", err)
	}
	// Adopt in spec-file modification order so the listing approximates
	// the original submission order.
	sort.Slice(ents, func(i, j int) bool {
		fi, errI := ents[i].Info()
		fj, errJ := ents[j].Info()
		if errI != nil || errJ != nil || fi.ModTime().Equal(fj.ModTime()) {
			return ents[i].Name() < ents[j].Name()
		}
		return fi.ModTime().Before(fj.ModTime())
	})
	for _, ent := range ents {
		name := ent.Name()
		if !strings.HasSuffix(name, ".spec.json") {
			continue
		}
		id := strings.TrimSuffix(name, ".spec.json")
		raw, err := os.ReadFile(filepath.Join(s.jobsDir, name))
		if err != nil {
			return fmt.Errorf("service: job %s: %w", id, err)
		}
		var spec JobSpec
		if err := json.Unmarshal(raw, &spec); err != nil {
			return fmt.Errorf("service: job %s: corrupt spec: %w", id, err)
		}
		res, err := Resolve(spec)
		if err != nil {
			// The registry no longer accepts this spec (version drift).
			// Keep the record, visibly failed, rather than dropping it.
			res = Resolved{Spec: spec}
			j := s.adopt(id, res, ent)
			s.finish(j, StateFailed, fmt.Sprintf("spec no longer resolves: %v", err))
			continue
		}
		j := s.adopt(id, res, ent)
		if rep, err := os.ReadFile(s.reportPath(id)); err == nil {
			failed, err := countFailedUnits(rep)
			if err == nil {
				j.report = rep
				j.failedUnits = failed
				s.finish(j, StateDone, "")
				continue
			}
			s.logf("job %s: corrupt report (%v), re-running", id, err)
			if err := os.Remove(s.reportPath(id)); err != nil {
				return fmt.Errorf("service: job %s: %w", id, err)
			}
		}
		if msg, err := os.ReadFile(s.failPath(id)); err == nil {
			s.finish(j, StateFailed, strings.TrimSpace(string(msg)))
			continue
		}
		s.logf("job %s: recovered unfinished, resuming", id)
		s.enqueue(j)
	}
	return nil
}

// adopt registers a recovered job in the queued state.
func (s *Service) adopt(id string, res Resolved, ent os.DirEntry) *job {
	created := time.Now()
	if fi, err := ent.Info(); err == nil {
		created = fi.ModTime()
	}
	j := &job{
		id:          id,
		res:         res,
		state:       StateQueued,
		totalTrials: res.Units * res.Spec.Trials,
		createdAt:   created,
		subs:        make(map[int]chan Event),
	}
	s.jobs[id] = j
	s.order = append(s.order, id)
	return j
}

// Submit accepts a job spec. Submission is idempotent: the job ID is a
// content address of the normalized spec, so resubmitting an identical
// spec returns the existing job (created = false) whatever state it is
// in. The spec is persisted before the job is enqueued — once Submit
// returns, a daemon restart will finish the job.
func (s *Service) Submit(spec JobSpec) (JobStatus, bool, error) {
	res, err := Resolve(spec)
	if err != nil {
		return JobStatus{}, false, specError{err}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return JobStatus{}, false, errShuttingDown
	}
	if j, ok := s.jobs[res.ID]; ok {
		return s.statusLocked(j), false, nil
	}
	j := &job{
		id:          res.ID,
		res:         res,
		state:       StateQueued,
		totalTrials: res.Units * res.Spec.Trials,
		createdAt:   time.Now(),
		subs:        make(map[int]chan Event),
	}
	if err := s.persistSpec(j); err != nil {
		return JobStatus{}, false, err
	}
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.publishLocked(j, Event{Type: EventState, State: StateQueued, Total: j.totalTrials})
	s.logf("job %s: accepted (%s, %d unit(s), %d trial(s))",
		j.id, j.res.Spec.Kind, j.res.Units, j.totalTrials)
	s.enqueue(j)
	return s.statusLocked(j), true, nil
}

// enqueue starts the job's goroutine. Callers hold s.mu or (during
// Open) have exclusive access.
func (s *Service) enqueue(j *job) {
	s.wg.Add(1)
	go s.runJob(j)
}

// runJob executes one job against the shared pool, store, and
// checkpoint directory. Jobs whose specs map onto the same checkpoint
// journal (e.g. two experiment selections with equal scale/seed/trials:
// the journal identity is deliberately selection-independent) are
// serialized on a per-journal mutex — the runner's flock would
// otherwise fail the second one, and serializing is strictly better:
// the second job replays the first one's shared outcomes for free.
func (s *Service) runJob(j *job) {
	defer s.wg.Done()
	jmu := s.journalMutex(j.res.journal)
	jmu.Lock()
	defer jmu.Unlock()

	s.mu.Lock()
	j.state = StateRunning
	s.publishLocked(j, Event{Type: EventState, State: StateRunning, Total: j.totalTrials})
	s.mu.Unlock()
	s.logf("job %s: running", j.id)

	cfg := runner.Config{
		Parallel:      s.pool.Width(),
		Pool:          s.pool,
		CheckpointDir: s.ckptDir,
		Resume:        true,
		Sinks:         []runner.CellSink{jobSink{s: s, j: j}},
	}
	if !j.res.Spec.Cold {
		cfg.Warm = true
		cfg.Store = s.store
	}

	var buf bytes.Buffer
	var failedUnits int
	rep, err := j.res.Run(cfg)
	if err == nil {
		failedUnits = rep.Failed()
		err = rep.WriteJSON(&buf)
	}
	if err != nil {
		werr := durable.WriteFile(s.failPath(j.id), func(w io.Writer) error {
			_, werr := fmt.Fprintln(w, err)
			return werr
		})
		if werr != nil {
			s.logf("job %s: persisting failure: %v", j.id, werr)
		}
		s.mu.Lock()
		s.finish(j, StateFailed, err.Error())
		s.mu.Unlock()
		s.logf("job %s: failed: %v", j.id, err)
		return
	}
	werr := durable.WriteFile(s.reportPath(j.id), func(w io.Writer) error {
		_, werr := w.Write(buf.Bytes())
		return werr
	})
	if werr != nil {
		// The run succeeded but its result cannot be persisted; the job
		// fails loudly rather than pretending the report is durable.
		s.mu.Lock()
		s.finish(j, StateFailed, werr.Error())
		s.mu.Unlock()
		s.logf("job %s: failed: %v", j.id, werr)
		return
	}
	s.mu.Lock()
	j.report = buf.Bytes()
	j.failedUnits = failedUnits
	s.finish(j, StateDone, "")
	s.mu.Unlock()
	s.logf("job %s: done (%d unit(s) failed)", j.id, failedUnits)
}

// finish moves a job to a terminal state and publishes the terminal
// event every event stream ends on. Callers hold s.mu (or, during
// Open's recovery, have exclusive access).
func (s *Service) finish(j *job, state JobState, errMsg string) {
	j.state = state
	j.errMsg = errMsg
	j.finishedAt = time.Now()
	s.publishLocked(j, Event{
		Type:  EventState,
		State: state,
		Error: errMsg,
		Done:  j.doneTrials,
		Total: j.totalTrials,
	})
}

// journalMutex returns the process-wide mutex for one journal identity.
func (s *Service) journalMutex(name string) *sync.Mutex {
	s.mu.Lock()
	defer s.mu.Unlock()
	m, ok := s.journals[name]
	if !ok {
		m = &sync.Mutex{}
		s.journals[name] = m
	}
	return m
}

// Status returns a job's current status.
func (s *Service) Status(id string) (JobStatus, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return JobStatus{}, false
	}
	return s.statusLocked(j), true
}

// Jobs lists every job in submission order.
func (s *Service) Jobs() []JobStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]JobStatus, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.statusLocked(s.jobs[id]))
	}
	return out
}

// Report returns a done job's report bytes — exactly the bytes a solo
// cmd/experiments run of the same spec writes.
func (s *Service) Report(id string) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, fmt.Errorf("service: no job %s", id)
	}
	switch j.state {
	case StateDone:
		return j.report, nil
	case StateFailed:
		return nil, fmt.Errorf("service: job %s failed: %s", id, j.errMsg)
	default:
		return nil, fmt.Errorf("service: job %s is %s, not finished", id, j.state)
	}
}

// PoolWidth reports the shared pool's width (health endpoint).
func (s *Service) PoolWidth() int { return s.pool.Width() }

// WaitIdle blocks until every job accepted so far has reached a
// terminal state. Jobs submitted after WaitIdle is called may or may
// not be waited on.
func (s *Service) WaitIdle() { s.wg.Wait() }

// Close stops accepting submissions and waits for in-flight jobs. (The
// daemon itself does NOT call this on shutdown — abandoning running
// jobs is safe by design, their journals resume on restart — but
// embedders and tests want a clean drain.)
func (s *Service) Close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.wg.Wait()
}

func (s *Service) statusLocked(j *job) JobStatus {
	st := JobStatus{
		ID:            j.id,
		State:         j.state,
		Spec:          j.res.Spec,
		Error:         j.errMsg,
		Units:         j.res.Units,
		TotalTrials:   j.totalTrials,
		DoneTrials:    j.doneTrials,
		ResumedTrials: j.resumedTrials,
		FailedTrials:  j.failedTrials,
		FailedUnits:   j.failedUnits,
		CreatedAt:     j.createdAt,
	}
	if j.state.terminal() {
		t := j.finishedAt
		st.FinishedAt = &t
	}
	return st
}

func (s *Service) specPath(id string) string {
	return filepath.Join(s.jobsDir, id+".spec.json")
}
func (s *Service) reportPath(id string) string {
	return filepath.Join(s.jobsDir, id+".report.json")
}
func (s *Service) failPath(id string) string {
	return filepath.Join(s.jobsDir, id+".error")
}

func (s *Service) persistSpec(j *job) error {
	return durable.WriteFile(s.specPath(j.id), func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(j.res.Spec)
	})
}

func (s *Service) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// countFailedUnits recounts failed experiments/cells from persisted
// report bytes (recovery has the bytes, not the report struct). An error
// means the bytes are not a report.
func countFailedUnits(raw []byte) (int, error) {
	var rep struct {
		Experiments []struct {
			OK bool `json:"ok"`
		} `json:"experiments"`
		Cells []struct {
			OK bool `json:"ok"`
		} `json:"cells"`
		Candidates []struct {
			OK bool `json:"ok"`
		} `json:"candidates"`
	}
	if err := json.Unmarshal(raw, &rep); err != nil {
		return 0, err
	}
	n := 0
	for _, e := range rep.Experiments {
		if !e.OK {
			n++
		}
	}
	for _, c := range rep.Cells {
		if !c.OK {
			n++
		}
	}
	for _, c := range rep.Candidates {
		if !c.OK {
			n++
		}
	}
	return n, nil
}
