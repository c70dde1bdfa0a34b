package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/experiments"
	"repro/internal/runner"
	"repro/internal/search"
	"repro/internal/service"
)

// svcJob is one job of the service mix.
type svcJob struct {
	name string
	spec service.JobSpec
}

// serviceMix is the fixed job mix, one list per client. Two jobs of
// different clients share fig7's prepared machine under different
// journals, so whichever client gets there second waits on or reuses the
// first one's build. Two jobs of one client share the experiments journal
// identity (equal scale, seed and trials) and overlap on one experiment,
// so the second always replays it: the pair stays in one client because across
// clients the order, and with it each job's work, would be a race. The
// rest is a budget-8 search and two sweeps.
func serviceMix(e *env) [parallel][]svcJob {
	seed := e.seed
	exps := func(trials int, ids ...string) service.JobSpec {
		return service.JobSpec{Kind: service.KindExperiments, Experiments: ids, Seed: &seed, Trials: trials}
	}
	sweep := func(id string, trials int) service.JobSpec {
		return service.JobSpec{Kind: service.KindSweep, Sweep: id, Seed: &seed, Trials: trials}
	}
	searchJob := func(budget int) service.JobSpec {
		return service.JobSpec{Kind: service.KindSearch, Budget: budget, Seed: &seed, Trials: 1}
	}
	if e.tiny() {
		return [parallel][]svcJob{
			{{"search2", searchJob(2)}, {"fig7_fig10", exps(1, "fig7", "fig10")}, {"fig10", exps(1, "fig10")}},
			{{"fig7x2", exps(2, "fig7")}},
		}
	}
	return [parallel][]svcJob{
		{{"search8", searchJob(8)}, {"fig7_fig8", exps(3, "fig7", "fig8")}, {"fig8_fig10", exps(3, "fig8", "fig10")}},
		{{"covert_timer", sweep("sens_covert_timer", 6)}, {"fig7x6", exps(6, "fig7")}, {"ring_detect", sweep("sens_ring_detect", 2)}},
	}
}

// jobTiming is what a client saw of one job, in seconds since dispatch.
type jobTiming struct {
	svcJob
	submit, posted, running, terminal, fetchStart, fetched float64
	firstEvent                                             float64
	sawTrial                                               bool
	state                                                  service.JobState
	events, failedTrials                                   int
	walls                                                  []float64 // executed (not replayed) trials
	report                                                 []byte
}

// runService runs the mix against experimentd in-process: service.Open on
// a fresh state directory, its Handler on a loopback listener, and one
// closed-loop client per list with zero think time. Set-up ends at the
// first healthz 200.
func runService(e *env, tr *tracer) (*outcome, error) {
	dir, err := os.MkdirTemp(e.work, "state-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	svc, err := service.Open(service.Config{StateDir: dir, Parallel: parallel})
	if err != nil {
		return nil, err
	}
	defer svc.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: svc.Handler(), ReadHeaderTimeout: 10 * time.Second}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	defer func() {
		srv.Close()
		<-served
	}()
	base := "http://" + ln.Addr().String()
	var clients [parallel]*http.Client
	for i := range clients {
		t := &http.Transport{MaxConnsPerHost: 1, DisableCompression: true}
		defer t.CloseIdleConnections()
		clients[i] = &http.Client{Transport: t}
	}
	if err := healthy(clients[0], base); err != nil {
		return nil, err
	}
	if !e.dispatch() {
		return nil, nil
	}

	mix := serviceMix(e)
	var timings [parallel][]*jobTiming
	var errs [parallel]error
	var wg sync.WaitGroup
	for c := range mix {
		wg.Add(1)
		go func() {
			defer wg.Done()
			timings[c], errs[c] = runClient(clients[c], base, mix[c], e.dispatchAt)
		}()
	}
	wg.Wait()
	wall := since(e.dispatchAt)
	if err := errors.Join(errs[:]...); err != nil {
		return nil, err
	}

	o := &outcome{wall: wall}
	var jobs []*jobTiming
	var manifest bytes.Buffer
	var latency, first, walls []float64
	for _, ts := range timings {
		for _, t := range ts {
			jobs = append(jobs, t)
			o.attempted++
			if t.state != service.StateDone || t.failedTrials > 0 {
				o.failed++
			}
			fmt.Fprintf(&manifest, "%s %s\n", t.name, digest(t.report))
			latency = append(latency, t.terminal-t.submit)
			first = append(first, t.firstEvent-t.submit)
			walls = append(walls, t.walls...)
		}
	}
	o.report = manifest.Bytes()
	o.jobP50, o.firstEvent = median(latency), median(first)
	if tr == nil {
		return o, nil
	}

	o.layers = runnerLayers(walls, wall)
	var submit, queue, run, fetch []float64
	events := 0
	dispatched := tr.now() - since(e.dispatchAt) // dispatch on the trace clock
	at := func(s float64) float64 { return dispatched + s }
	for _, t := range jobs {
		id := "job:" + t.name
		tr.add(Span{ID: id, Name: "service.job", Parent: e.name, Start: at(t.submit), End: at(t.fetched)})
		tr.add(Span{ID: id + "/submit", Name: "service.submit", Parent: id, Start: at(t.submit), End: at(t.posted)})
		tr.add(Span{ID: id + "/queue", Name: "service.queue", Parent: id, Start: at(t.posted), End: at(t.running)})
		tr.add(Span{ID: id + "/execute", Name: "service.execute", Parent: id, Start: at(t.running), End: at(t.terminal)})
		tr.add(Span{ID: id + "/fetch", Name: "service.fetch", Parent: id, Start: at(t.fetchStart), End: at(t.fetched)})
		submit = append(submit, t.posted-t.submit)
		queue = append(queue, t.running-t.submit)
		run = append(run, t.terminal-t.running)
		fetch = append(fetch, t.fetched-t.fetchStart)
		events += t.events
	}
	o.layers["service.submit_p50_s"] = median(submit)
	o.layers["service.queue_p50_s"] = median(queue)
	o.layers["service.run_p50_s"] = median(run)
	o.layers["service.report_fetch_p50_s"] = median(fetch)
	o.layers["service.events"] = float64(events)
	journal, _, err := dirSize(filepath.Join(dir, "checkpoints"), "")
	if err != nil {
		return nil, err
	}
	o.layers["journal.bytes_per_trial"] = float64(journal) / float64(max(len(walls), 1))
	artBytes, artFiles, err := dirSize(filepath.Join(dir, "artifacts"), ".rig.gob")
	if err != nil {
		return nil, err
	}
	o.layers["artifacts.disk_files"] = float64(artFiles)
	o.layers["artifacts.disk_bytes"] = float64(artBytes)

	problems, err := soloReplay(e, tr, jobs, o.layers)
	o.problems = append(o.problems, problems...)
	return o, err
}

// soloReplay runs each job of the mix again in-process under timing
// wrappers, sharing one artifact store the way the service does. The
// service calls the experiments layer internally, so this is where its
// Prepare and Measure costs are seen; it also checks each service report
// against the solo run's bytes.
func soloReplay(e *env, tr *tracer, jobs []*jobTiming, layers map[string]float64) ([]string, error) {
	store := experiments.NewArtifactStore()
	units := 0
	var problems []string
	err := tr.span("solo", "solo", e.name, func() error {
		for _, t := range jobs {
			spanID := "solo:" + t.name
			obs := &observer{start: clock()}
			if t.spec.Kind == service.KindSearch {
				var rep search.Report
				if err := json.Unmarshal(t.report, &rep); err != nil {
					return fmt.Errorf("job %s: %w", t.name, err)
				}
				p, err := replaySearch(tr, &rep, spanID, "solo", store, obs)
				if err != nil {
					return err
				}
				problems = append(problems, p...)
				units += len(rep.Candidates)
				layers["search.candidates"] += float64(rep.Evaluated)
				layers["search.generations"] += float64(rep.Generations)
				continue
			}
			j, err := soloJob(t.spec)
			if err != nil {
				return err
			}
			rep, err := j.run(tr, spanID, "solo", store, obs)
			if err != nil {
				return err
			}
			b, err := encode(tr, spanID, rep, layers)
			if err != nil {
				return err
			}
			if !bytes.Equal(b, t.report) {
				problems = append(problems, fmt.Sprintf("job %s: service report differs from the solo run", t.name))
			}
			units += j.units()
		}
		return nil
	})
	layers["store.builds"] = float64(store.Builds())
	layers["store.builds_per_unit"] = float64(store.Builds()) / float64(max(units, 1))
	return problems, err
}

// soloJob is the runner job a cmd/experiments run of an experiments or
// sweep spec executes.
func soloJob(spec service.JobSpec) (runnerJob, error) {
	job := runner.Job{Scale: experiments.Demo, Seed: *spec.Seed, Trials: spec.Trials}
	if spec.Kind == service.KindSweep {
		sw, ok := experiments.SweepByID(spec.Sweep)
		if !ok {
			return runnerJob{}, fmt.Errorf("no sweep %s", spec.Sweep)
		}
		return runnerJob{sweep: sw, job: job}, nil
	}
	sel, err := byIDs(spec.Experiments...)
	return runnerJob{sel: sel, job: job}, err
}

// soloService runs every job of the mix in-process, one after another, and
// returns the same manifest the service run does. Pinning uses it to hold
// the service to the solo bytes.
func soloService(e *env) (*outcome, error) {
	if !e.dispatch() {
		return nil, nil
	}
	var manifest bytes.Buffer
	o := &outcome{}
	for _, list := range serviceMix(e) {
		for _, j := range list {
			var rep reportWriter
			if j.spec.Kind == service.KindSearch {
				r, err := search.Run(search.Options{
					Scale: experiments.Demo, Seed: *j.spec.Seed, Budget: j.spec.Budget,
					Runner: runner.Config{Parallel: parallel, Warm: true},
				})
				if err != nil {
					return nil, err
				}
				rep = r
			} else {
				rj, err := soloJob(j.spec)
				if err != nil {
					return nil, err
				}
				obs := &observer{start: clock()}
				if rep, err = rj.run(nil, "", "", nil, obs); err != nil {
					return nil, err
				}
			}
			b, err := encode(nil, "", rep, nil)
			if err != nil {
				return nil, err
			}
			fmt.Fprintf(&manifest, "%s %s\n", j.name, digest(b))
			o.attempted++
		}
	}
	o.report = manifest.Bytes()
	o.wall = since(e.dispatchAt)
	return o, nil
}

// healthy waits for the first healthz 200.
func healthy(hc *http.Client, base string) error {
	var last error
	for i := 0; i < 50; i++ {
		resp, err := hc.Get(base + "/v1/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
			err = fmt.Errorf("healthz: %s", resp.Status)
		}
		last = err
		time.Sleep(10 * time.Millisecond)
	}
	return last
}

// runClient is one closed-loop client: for each job in turn, POST it,
// follow its event stream to the terminal state, then GET its report.
func runClient(hc *http.Client, base string, jobs []svcJob, t0 time.Time) ([]*jobTiming, error) {
	var out []*jobTiming
	for _, j := range jobs {
		t := &jobTiming{svcJob: j, submit: since(t0)}
		body, err := json.Marshal(j.spec)
		if err != nil {
			return nil, err
		}
		resp, err := hc.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			return nil, fmt.Errorf("job %s: submit: %w", j.name, err)
		}
		var st struct {
			ID      string `json:"id"`
			Created bool   `json:"created"`
		}
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusCreated || !st.Created {
			return nil, fmt.Errorf("job %s: submit: %s (%v)", j.name, resp.Status, err)
		}
		t.posted = since(t0)
		if err := follow(hc, base, st.ID, t, t0); err != nil {
			return nil, fmt.Errorf("job %s: %w", j.name, err)
		}
		t.fetchStart = since(t0)
		if t.report, err = get(hc, base+"/v1/jobs/"+st.ID+"/report"); err != nil {
			return nil, fmt.Errorf("job %s: report: %w", j.name, err)
		}
		t.fetched = since(t0)
		out = append(out, t)
	}
	return out, nil
}

// follow reads a job's server-sent events until its terminal state. The
// service drops a subscriber that falls behind; the stream then ends
// early, and a reconnect replays the log from the start, so events already
// seen are skipped by sequence number.
func follow(hc *http.Client, base, id string, t *jobTiming, t0 time.Time) error {
	last := -1
	for attempt := 0; attempt < 10 && t.state == ""; attempt++ {
		resp, err := hc.Get(base + "/v1/jobs/" + id + "/events")
		if err != nil {
			return fmt.Errorf("events: %w", err)
		}
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 64<<10), 8<<20)
		for sc.Scan() {
			data, ok := strings.CutPrefix(sc.Text(), "data: ")
			if !ok {
				continue
			}
			var ev service.Event
			if err := json.Unmarshal([]byte(data), &ev); err != nil {
				resp.Body.Close()
				return fmt.Errorf("events: %w", err)
			}
			if ev.Seq <= last {
				continue
			}
			last = ev.Seq
			at := since(t0)
			t.events++
			switch ev.Type {
			case service.EventTrial:
				if !t.sawTrial {
					t.sawTrial, t.firstEvent = true, at
				}
				if ev.Failed {
					t.failedTrials++
				}
				if !ev.Resumed {
					t.walls = append(t.walls, ev.WallMS/1000)
				}
			case service.EventState:
				switch ev.State {
				case service.StateRunning:
					t.running = at
				case service.StateDone, service.StateFailed:
					t.state, t.terminal = ev.State, at
				}
			}
		}
		err = sc.Err()
		resp.Body.Close()
		if err != nil {
			return fmt.Errorf("events: %w", err)
		}
	}
	if t.state == "" {
		return fmt.Errorf("events: stream ended before the job finished")
	}
	if !t.sawTrial {
		t.firstEvent = t.terminal
	}
	return nil
}

func get(hc *http.Client, url string) ([]byte, error) {
	resp, err := hc.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("%s: %s", resp.Status, bytes.TrimSpace(b))
	}
	return b, err
}

// dirSize sums the sizes of the regular files under dir whose names end
// in suffix.
func dirSize(dir, suffix string) (size int64, files int, err error) {
	err = filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(d.Name(), suffix) {
			return err
		}
		fi, err := d.Info()
		if err != nil {
			return err
		}
		size += fi.Size()
		files++
		return nil
	})
	return size, files, err
}
