package runner

import (
	"time"

	"repro/internal/experiments"
)

// TrialOutcome is one completed (unit, trial) measurement as the streaming
// executor hands it to sinks. A unit is an experiment ID (Run) or a sweep
// cell key (RunSweep); the pair (Unit, Trial) is the outcome's identity
// within a job and the granule of checkpointing and resume.
type TrialOutcome struct {
	// Unit identifies the experiment or sweep cell the trial belongs to.
	Unit string
	// Trial is the trial index within the unit.
	Trial int
	// Result is the trial's measurement (zero when Err != nil).
	Result experiments.Result
	// Err is the trial's failure, nil on success. Failures are
	// deterministic (the simulation is), so sinks may persist and replay
	// them like successes.
	Err error
	// Wall is the trial's wall-clock duration. It never reaches the
	// serialized report (reports are byte-deterministic), but progress
	// reporting and journals carry it.
	Wall time.Duration
	// Resumed marks an outcome served from a checkpoint journal rather
	// than executed. Progress sinks count it differently; the checkpoint
	// sink must not re-journal it.
	Resumed bool
}

// CellSink receives each (unit, trial) outcome as it completes. The
// executor delivers outcomes one at a time (Put is never called
// concurrently), but in completion order, which depends on the worker-pool
// width — a sink must not assume grid order. A sink error aborts the run:
// the only built-in fallible sink is the checkpoint journal, and a user who
// asked for checkpointing must not silently lose it.
type CellSink interface {
	Put(TrialOutcome) error
}

// collector assembles the streamed outcomes back into the pre-assigned
// result matrix the report aggregation reads. Slot assignment — not
// completion order — is what keeps report bytes independent of the pool
// width.
type collector struct {
	index    map[string]int
	outcomes [][]TrialOutcome
}

func newCollector(units []string, trials int) *collector {
	c := &collector{
		index:    make(map[string]int, len(units)),
		outcomes: make([][]TrialOutcome, len(units)),
	}
	for i, u := range units {
		c.index[u] = i
		c.outcomes[i] = make([]TrialOutcome, trials)
	}
	return c
}

func (c *collector) Put(o TrialOutcome) error {
	ui, ok := c.index[o.Unit]
	if !ok || o.Trial < 0 || o.Trial >= len(c.outcomes[ui]) {
		// Foreign outcomes can only come from a checkpoint journal whose
		// grid has since changed shape; they are simply not part of this
		// run.
		return nil
	}
	c.outcomes[ui][o.Trial] = o
	return nil
}

// multiSink fans one outcome stream to several sinks.
type multiSink []CellSink

func (m multiSink) Put(o TrialOutcome) error {
	for _, s := range m {
		if s == nil {
			continue
		}
		if err := s.Put(o); err != nil {
			return err
		}
	}
	return nil
}
