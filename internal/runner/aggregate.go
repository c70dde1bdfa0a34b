package runner

import (
	"fmt"

	"repro/internal/experiments"
	"repro/internal/stats"
)

// aggregate reduces one experiment's (or sweep cell's) trial outcomes into
// a report entry. Metric order follows the first successful trial (every
// trial runs the same code, so the set and order of metric names match);
// the values slice is ordered by trial index.
func aggregate(id, title string, trials []TrialOutcome) ExperimentReport {
	er := ExperimentReport{ID: id, Title: title, OK: true}
	first := -1
	for ti, t := range trials {
		er.Wall += t.Wall
		if t.Err != nil {
			if er.OK {
				er.OK = false
				er.Error = fmt.Sprintf("trial %d: %v", ti, t.Err)
			}
			continue
		}
		if first < 0 {
			first = ti
		}
	}
	if first < 0 {
		return er
	}
	er.Table = trials[first].Result
	if title := trials[first].Result.Title; title != "" {
		er.Title = title
	}
	// Metrics are matched across trials by (name, occurrence ordinal) so
	// an accidental duplicate name aggregates positionally instead of
	// collapsing every occurrence onto the first one's values.
	type key struct {
		name string
		ord  int
	}
	byKey := func(ms []experiments.Metric) map[key]float64 {
		seen := map[string]int{}
		out := make(map[key]float64, len(ms))
		for _, m := range ms {
			out[key{m.Name, seen[m.Name]}] = m.Value
			seen[m.Name]++
		}
		return out
	}
	trialValues := make([]map[key]float64, len(trials))
	for ti, t := range trials {
		if t.Err == nil {
			trialValues[ti] = byKey(t.Result.Metrics)
		}
	}
	ord := map[string]int{}
	for _, m := range trials[first].Result.Metrics {
		k := key{m.Name, ord[m.Name]}
		ord[m.Name]++
		values := make([]float64, 0, len(trials))
		for _, tv := range trialValues {
			if tv == nil {
				continue
			}
			if v, ok := tv[k]; ok {
				values = append(values, v)
			}
		}
		er.Metrics = append(er.Metrics, MetricSummary{
			Name:    m.Name,
			Unit:    m.Unit,
			Summary: stats.Summarize(values),
			Values:  values,
		})
	}
	return er
}
