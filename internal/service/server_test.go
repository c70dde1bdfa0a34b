package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("GET %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

func postJSON(t *testing.T, url string, body string, out any) int {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("POST %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

// TestHTTPEndToEnd drives the whole API surface the way a client (or
// the CI daemon-smoke job) does: submit, poll, fetch the report, stream
// events — plus every documented error status.
func TestHTTPEndToEnd(t *testing.T) {
	svc, err := Open(Config{StateDir: t.TempDir(), Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	var health struct {
		OK        bool `json:"ok"`
		PoolWidth int  `json:"pool_width"`
	}
	if code := getJSON(t, ts.URL+"/v1/healthz", &health); code != 200 || !health.OK || health.PoolWidth != 2 {
		t.Fatalf("healthz: code %d, %+v", code, health)
	}

	var reg struct {
		Entries []struct {
			ID    string `json:"id"`
			Kind  string `json:"kind"`
			Cells int    `json:"cells"`
		} `json:"entries"`
	}
	if code := getJSON(t, ts.URL+"/v1/registry", &reg); code != 200 {
		t.Fatalf("registry: code %d", code)
	}
	found := map[string]bool{}
	for _, e := range reg.Entries {
		found[e.ID] = true
		if e.Kind == "sweep" && e.Cells == 0 {
			t.Errorf("sweep %s lists no cells", e.ID)
		}
	}
	if !found["fig5"] || !found["sens_chase_noise"] {
		t.Fatalf("registry missing known entries: %v", found)
	}

	// Submit: 201 on creation, 200 (same ID) on resubmission.
	spec := `{"kind":"experiments","experiments":["fig5"],"trials":2}`
	var sub submitResponse
	if code := postJSON(t, ts.URL+"/v1/jobs", spec, &sub); code != 201 || !sub.Created || sub.ID == "" {
		t.Fatalf("submit: code %d, %+v", code, sub)
	}
	var again submitResponse
	if code := postJSON(t, ts.URL+"/v1/jobs", spec, &again); code != 200 || again.Created || again.ID != sub.ID {
		t.Fatalf("resubmit: code %d, %+v", code, again)
	}

	// Poll to completion.
	var st JobStatus
	deadline := time.Now().Add(60 * time.Second)
	for {
		if code := getJSON(t, ts.URL+"/v1/jobs/"+sub.ID, &st); code != 200 {
			t.Fatalf("status: code %d", code)
		}
		if st.State == StateDone || st.State == StateFailed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", st.State)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if st.State != StateDone || st.DoneTrials != 2 {
		t.Fatalf("job finished %+v", st)
	}

	// The report is served verbatim and matches a solo run.
	resp, err := http.Get(ts.URL + "/v1/jobs/" + sub.ID + "/report")
	if err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || resp.Header.Get("Content-Type") != "application/json" {
		t.Fatalf("report: code %d, content-type %q", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	want := soloBytes(t, JobSpec{Kind: KindExperiments, Experiments: []string{"fig5"}, Trials: 2})
	if !bytes.Equal(got, want) {
		t.Error("HTTP report differs from solo run bytes")
	}

	var list struct {
		Jobs []JobStatus `json:"jobs"`
	}
	if code := getJSON(t, ts.URL+"/v1/jobs", &list); code != 200 || len(list.Jobs) != 1 {
		t.Fatalf("list: code %d, %d jobs", code, len(list.Jobs))
	}

	// The SSE stream of a finished job replays the full log and ends.
	resp, err = http.Get(ts.URL + "/v1/jobs/" + sub.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 || resp.Header.Get("Content-Type") != "text/event-stream" {
		t.Fatalf("events: code %d, content-type %q", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	var events []Event
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var ev Event
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
			t.Fatalf("bad SSE payload %q: %v", line, err)
		}
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	trials := 0
	for _, ev := range events {
		if ev.Type == EventTrial {
			trials++
		}
	}
	if trials != 2 {
		t.Errorf("SSE stream carried %d trial events, want 2", trials)
	}
	if last := events[len(events)-1]; last.Type != EventState || last.State != StateDone {
		t.Errorf("SSE stream ended on %+v, want terminal state", last)
	}

	// Error statuses.
	for path, wantCode := range map[string]int{
		"/v1/jobs/nope":        404,
		"/v1/jobs/nope/report": 404,
		"/v1/jobs/nope/events": 404,
	} {
		if code := getJSON(t, ts.URL+path, nil); code != wantCode {
			t.Errorf("GET %s: code %d, want %d", path, code, wantCode)
		}
	}
	for _, body := range []string{
		`not json`,
		`{"kind":"experiments","experiments":["no_such_fig"]}`,
		`{"kind":"experiments","experiments":["fig5","fig5"]}`,
		`{"kind":"experiments","bogus_field":1}`,
	} {
		var e struct {
			Error string `json:"error"`
		}
		if code := postJSON(t, ts.URL+"/v1/jobs", body, &e); code != 400 || e.Error == "" {
			t.Errorf("POST %q: code %d, error %q (want 400 with message)", body, code, e.Error)
		}
	}
}

// TestHTTPSubmitBodyCapped: a submission body over maxSubmitBytes is
// refused with 413 and creates no job; a normal spec is still accepted.
func TestHTTPSubmitBodyCapped(t *testing.T) {
	svc, err := Open(Config{StateDir: t.TempDir(), Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	// Valid JSON apart from its size: the padding is whitespace inside
	// the object, so only the cap can reject it.
	big := `{"kind":"experiments","experiments":["fig5"]` + strings.Repeat(" ", maxSubmitBytes) + `}`
	var e struct {
		Error string `json:"error"`
	}
	if code := postJSON(t, ts.URL+"/v1/jobs", big, &e); code != http.StatusRequestEntityTooLarge || e.Error == "" {
		t.Fatalf("oversized spec: code %d, error %q (want 413 with message)", code, e.Error)
	}
	if jobs := svc.Jobs(); len(jobs) != 0 {
		t.Fatalf("oversized spec created %d job(s)", len(jobs))
	}

	var sub submitResponse
	if code := postJSON(t, ts.URL+"/v1/jobs", `{"kind":"experiments","experiments":["fig5"]}`, &sub); code != http.StatusCreated || !sub.Created {
		t.Fatalf("normal spec after an oversized one: code %d, %+v", code, sub)
	}
	svc.WaitIdle()
}

// TestHTTPSubmitPersistFailure: a submission the daemon cannot persist
// (a directory occupies the job's spec path, so the rename fails) is the
// daemon's fault, not the client's: 500, not 400, and no job is listed.
func TestHTTPSubmitPersistFailure(t *testing.T) {
	svc, err := Open(Config{StateDir: t.TempDir(), Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	spec := JobSpec{Kind: KindExperiments, Experiments: []string{"fig5"}}
	res, err := Resolve(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(svc.specPath(res.ID), "occupant"), 0o755); err != nil {
		t.Fatal(err)
	}
	var e struct {
		Error string `json:"error"`
	}
	if code := postJSON(t, ts.URL+"/v1/jobs", `{"kind":"experiments","experiments":["fig5"]}`, &e); code != http.StatusInternalServerError || e.Error == "" {
		t.Fatalf("unpersistable spec: code %d, error %q (want 500 with message)", code, e.Error)
	}
	var list struct {
		Jobs []JobStatus `json:"jobs"`
	}
	if code := getJSON(t, ts.URL+"/v1/jobs", &list); code != http.StatusOK || len(list.Jobs) != 0 {
		t.Fatalf("GET /v1/jobs: code %d, %d job(s); want 200 and none", code, len(list.Jobs))
	}
	svc.WaitIdle()
}

// TestHTTPReportNotFinished: asking for the report of a queued/running
// job is a 409, not a hang or an empty 200.
func TestHTTPReportNotFinished(t *testing.T) {
	svc, err := Open(Config{StateDir: t.TempDir(), Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	// A job big enough to still be in flight when we ask. Worst case it
	// finishes first and the test degrades to the done path — so poll
	// immediately and tolerate 200 only when state is already terminal.
	var sub submitResponse
	if code := postJSON(t, ts.URL+"/v1/jobs", `{"kind":"sweep","sweep":"sens_chase_noise","trials":2}`, &sub); code != 201 {
		t.Fatalf("submit: code %d", code)
	}
	resp, err := http.Get(fmt.Sprintf("%s/v1/jobs/%s/report", ts.URL, sub.ID))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	var st JobStatus
	getJSON(t, ts.URL+"/v1/jobs/"+sub.ID, &st)
	if resp.StatusCode != 409 && !(resp.StatusCode == 200 && st.State == StateDone) {
		t.Errorf("unfinished report: code %d (state %s)", resp.StatusCode, st.State)
	}
	svc.WaitIdle()
}
