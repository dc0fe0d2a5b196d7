package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/anacin-go/anacinx/internal/analysis"
	"github.com/anacin-go/anacinx/internal/campaign"
	"github.com/anacin-go/anacinx/internal/trace"
)

// newQuietLogger routes server log lines to the test log (shown only
// with -v or on failure).
func newQuietLogger(t *testing.T) *log.Logger { return log.New(&logWriter{t: t}, "", 0) }

type logWriter struct{ t *testing.T }

func (w *logWriter) Write(p []byte) (int, error) {
	w.t.Logf("%s", strings.TrimRight(string(p), "\n"))
	return len(p), nil
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Log == nil {
		cfg.Log = newQuietLogger(t)
	}
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	// Cancelled jobs can leave store computations briefly in flight;
	// wait them out so this cleanup (LIFO, before swapRunCell's restore)
	// never races a compute goroutine still reading runCellFn.
	t.Cleanup(func() {
		deadline := time.Now().Add(10 * time.Second)
		for s.Store().Inflight() != 0 {
			if time.Now().After(deadline) {
				t.Error("store computations never drained")
				return
			}
			time.Sleep(time.Millisecond)
		}
	})
	return s, ts
}

// fakeCell fabricates a plausible completed cell for a spec without
// simulating anything.
func fakeCell(g campaign.Grid, spec campaign.CellSpec) campaign.Cell {
	return campaign.Cell{
		Pattern: spec.Pattern, Procs: spec.Procs, Iterations: spec.Iterations,
		Nodes: spec.Nodes, NDPercent: spec.NDPercent, Runs: g.Runs,
		Summary:            analysis.Summary{N: g.Runs, Median: spec.NDPercent / 100},
		DistinctStructures: 1,
	}
}

// swapRunCell overrides the cell executor for the duration of a test;
// fn sees every argument but the archive settings. Tests that call it
// must not run in parallel (package-global state).
func swapRunCell(t *testing.T, fn func(context.Context, campaign.Grid, campaign.CellSpec, int) campaign.Cell) {
	t.Helper()
	old := runCellFn
	runCellFn = func(ctx context.Context, g campaign.Grid, spec campaign.CellSpec, runWorkers int, _ string, _ trace.CodecOptions) campaign.Cell {
		return fn(ctx, g, spec, runWorkers)
	}
	t.Cleanup(func() { runCellFn = old })
}

const smallBody = `{"patterns":["message_race","ring_halo"],"procs":[4],"iterations":[1],"nodes":[1],"nd_percents":[0,100],"runs":2,"base_seed":7,"kernel":"wl2"}`

type submitView struct {
	ID     string            `json:"id"`
	Status Status            `json:"status"`
	Kernel string            `json:"kernel"`
	Total  int               `json:"total_cells"`
	Links  map[string]string `json:"links"`
}

func submit(t *testing.T, ts *httptest.Server, body string) submitView {
	t.Helper()
	resp, err := ts.Client().Post(ts.URL+"/v1/campaigns", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d, body %s", resp.StatusCode, raw)
	}
	var v submitView
	if err := json.Unmarshal(raw, &v); err != nil {
		t.Fatalf("submit: %v (body %s)", err, raw)
	}
	if v.ID == "" || v.Links["events"] == "" || v.Links["results"] == "" {
		t.Fatalf("submit response missing id/links: %s", raw)
	}
	return v
}

type jobResponse struct {
	Job   JobView    `json:"job"`
	Cells []CellView `json:"cells"`
}

func getJob(t *testing.T, ts *httptest.Server, id string) jobResponse {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/v1/campaigns/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("get job: status %d", resp.StatusCode)
	}
	var v jobResponse
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

func waitStatus(t *testing.T, ts *httptest.Server, id string, want Status) jobResponse {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		v := getJob(t, ts, id)
		if v.Job.Status == want {
			return v
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s, want %s", id, v.Job.Status, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

type sseFrame struct {
	ID   int
	Type string
	Data string
}

// readSSE consumes a /events stream to its natural EOF (the server ends
// it after the terminal event) and returns the parsed frames.
func readSSE(t *testing.T, ts *httptest.Server, path string, lastEventID string) []sseFrame {
	t.Helper()
	req, err := http.NewRequest("GET", ts.URL+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if lastEventID != "" {
		req.Header.Set("Last-Event-ID", lastEventID)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events: content-type %q", ct)
	}
	var frames []sseFrame
	var cur sseFrame
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if cur.Type != "" {
				frames = append(frames, cur)
			}
			cur = sseFrame{}
		case strings.HasPrefix(line, "id: "):
			fmt.Sscanf(line, "id: %d", &cur.ID) //nolint:errcheck
		case strings.HasPrefix(line, "event: "):
			cur.Type = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.Data = strings.TrimPrefix(line, "data: ")
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("events: %v", err)
	}
	return frames
}

func TestSubmitRejections(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxCells: 8, MaxRuns: 10})
	cases := []struct {
		name        string
		contentType string
		body        string
		wantStatus  int
		wantSubstr  string
	}{
		{"bad json", "application/json", `{"patterns":`, 400, "bad grid json"},
		{"unknown field", "application/json", `{"paterns":["message_race"]}`, 400, "unknown field"},
		{"trailing data", "application/json", `{"runs":2}{"runs":3}`, 400, "trailing data"},
		{"negative runs", "application/json", `{"runs":-1}`, 400, "runs"},
		{"runs over limit", "application/json", `{"patterns":["message_race"],"procs":[4],"runs":99}`, 400, "limit"},
		{"bad kernel", "application/json", `{"kernel":"wat"}`, 400, "kernel"},
		{"unknown pattern", "application/json", `{"patterns":["no_such_pattern"],"procs":[4],"iterations":[1],"nodes":[1],"nd_percents":[0]}`, 400, "no_such_pattern"},
		{"nd out of range", "application/json", `{"patterns":["message_race"],"procs":[4],"iterations":[1],"nodes":[1],"nd_percents":[150]}`, 400, "nd_percents"},
		{"too many cells", "application/json", `{"patterns":["message_race"],"procs":[4],"iterations":[1],"nodes":[1],"nd_percents":[0,10,20,30,40,50,60,70,80]}`, 400, "cells"},
		{"wrong content type", "text/plain", smallBody, 415, "content-type"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := ts.Client().Post(ts.URL+"/v1/campaigns", tc.contentType, strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			raw, _ := io.ReadAll(resp.Body)
			if resp.StatusCode != tc.wantStatus {
				t.Fatalf("status %d, want %d (body %s)", resp.StatusCode, tc.wantStatus, raw)
			}
			var e struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(raw, &e); err != nil || e.Error == "" {
				t.Fatalf("error body %s (unmarshal: %v)", raw, err)
			}
			if !strings.Contains(e.Error, tc.wantSubstr) {
				t.Errorf("error %q does not mention %q", e.Error, tc.wantSubstr)
			}
		})
	}
}

func TestUnknownJob404(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, path := range []string{"/v1/campaigns/job-99", "/v1/campaigns/job-99/events", "/v1/campaigns/job-99/results"} {
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s: status %d, want 404", path, resp.StatusCode)
		}
	}
}

// TestJobLifecycle drives a faked campaign from submission to done and
// checks the status, results (all three formats), list, and stats
// surfaces along the way.
func TestJobLifecycle(t *testing.T) {
	swapRunCell(t, func(ctx context.Context, g campaign.Grid, spec campaign.CellSpec, _ int) campaign.Cell {
		return fakeCell(g, spec)
	})
	s, ts := newTestServer(t, Config{})

	sub := submit(t, ts, smallBody)
	if sub.Kernel != "wlst-h2" && sub.Kernel != "wl2" {
		// Name depends on kernel.NewWL(2).Name(); just require non-empty.
		if sub.Kernel == "" {
			t.Fatal("submit response has empty kernel")
		}
	}
	if sub.Total != 4 {
		t.Fatalf("total_cells = %d, want 4", sub.Total)
	}

	done := waitStatus(t, ts, sub.ID, StatusDone)
	if done.Job.DoneCells != 4 {
		t.Errorf("done_cells = %d, want 4", done.Job.DoneCells)
	}
	for _, c := range done.Cells {
		if !c.Done || c.Source != SourceComputed || c.Summary == nil || c.Fingerprint == "" {
			t.Errorf("cell %d incomplete: %+v", c.Index, c)
		}
	}

	// Results, all formats.
	var jsonRes struct {
		Kernel string     `json:"kernel"`
		Cells  []CellView `json:"cells"`
	}
	resp, err := ts.Client().Get(ts.URL + "/v1/campaigns/" + sub.ID + "/results")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 {
		t.Fatalf("results: status %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&jsonRes); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(jsonRes.Cells) != 4 || jsonRes.Kernel == "" {
		t.Errorf("json results: kernel %q, %d cells", jsonRes.Kernel, len(jsonRes.Cells))
	}
	for _, format := range []string{"csv", "markdown"} {
		resp, err := ts.Client().Get(ts.URL + "/v1/campaigns/" + sub.ID + "/results?format=" + format)
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 || len(raw) == 0 {
			t.Errorf("results?format=%s: status %d, %d bytes", format, resp.StatusCode, len(raw))
		}
		if format == "csv" && !strings.Contains(string(raw), "message_race") {
			t.Errorf("csv results missing cells:\n%s", raw)
		}
	}
	resp, err = ts.Client().Get(ts.URL + "/v1/campaigns/" + sub.ID + "/results?format=yaml")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Errorf("results?format=yaml: status %d, want 400", resp.StatusCode)
	}

	// List includes the job; stats count it done with 4 misses.
	resp, err = ts.Client().Get(ts.URL + "/v1/campaigns")
	if err != nil {
		t.Fatal(err)
	}
	var list struct {
		Campaigns []JobView `json:"campaigns"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(list.Campaigns) != 1 || list.Campaigns[0].ID != sub.ID {
		t.Errorf("list: %+v", list)
	}
	if s.Store().Misses() != 4 || s.Store().Len() != 4 {
		t.Errorf("store: misses=%d len=%d, want 4/4", s.Store().Misses(), s.Store().Len())
	}
}

// TestSSEOrdering pins the event contract: every subscriber — one
// connected before the first cell finishes, one connected only after
// the job is done, and one resuming from Last-Event-ID — observes the
// same dense 1-based sequence: `job`, then one `cell` per cell with
// done_cells strictly increasing, then a terminal `done`.
func TestSSEOrdering(t *testing.T) {
	gate := make(chan struct{})
	swapRunCell(t, func(ctx context.Context, g campaign.Grid, spec campaign.CellSpec, _ int) campaign.Cell {
		<-gate
		return fakeCell(g, spec)
	})
	_, ts := newTestServer(t, Config{CellWorkers: 4})

	sub := submit(t, ts, smallBody)

	var wg sync.WaitGroup
	var live []sseFrame
	wg.Add(1)
	go func() {
		defer wg.Done()
		live = readSSE(t, ts, sub.Links["events"], "")
	}()
	close(gate)
	wg.Wait()
	waitStatus(t, ts, sub.ID, StatusDone)

	replay := readSSE(t, ts, sub.Links["events"], "")
	resumed := readSSE(t, ts, sub.Links["events"], "2")

	checkSequence := func(name string, frames []sseFrame) {
		t.Helper()
		if len(frames) != 6 { // job + 4 cells + done
			t.Fatalf("%s: %d frames, want 6: %+v", name, len(frames), frames)
		}
		for i, f := range frames {
			if f.ID != i+1 {
				t.Errorf("%s: frame %d has id %d", name, i, f.ID)
			}
		}
		if frames[0].Type != "job" || frames[5].Type != "done" {
			t.Errorf("%s: boundary events %q...%q", name, frames[0].Type, frames[5].Type)
		}
		for i := 1; i <= 4; i++ {
			if frames[i].Type != "cell" {
				t.Fatalf("%s: frame %d type %q, want cell", name, i, frames[i].Type)
			}
			var ev struct {
				DoneCells  int  `json:"done_cells"`
				TotalCells int  `json:"total_cells"`
				Done       bool `json:"done"`
			}
			if err := json.Unmarshal([]byte(frames[i].Data), &ev); err != nil {
				t.Fatal(err)
			}
			if ev.DoneCells != i || ev.TotalCells != 4 || !ev.Done {
				t.Errorf("%s: cell frame %d: done_cells=%d total=%d done=%v",
					name, i, ev.DoneCells, ev.TotalCells, ev.Done)
			}
		}
	}
	checkSequence("live", live)
	checkSequence("replay", replay)

	// The live subscriber and the late replay see byte-identical streams.
	for i := range live {
		if live[i] != replay[i] {
			t.Errorf("frame %d differs: live %+v, replay %+v", i, live[i], replay[i])
		}
	}
	// Resume from id 2 delivers exactly the tail.
	if len(resumed) != 4 || resumed[0].ID != 3 || resumed[3].Type != "done" {
		t.Errorf("resumed stream: %+v", resumed)
	}
}

// TestConcurrentOverlappingSubmissionsDedupe is the singleflight story
// end to end: two simultaneous grids sharing a cell run that cell's
// simulation once, and the second job's copy arrives as joined/store.
func TestConcurrentOverlappingSubmissionsDedupe(t *testing.T) {
	release := make(chan struct{})
	swapRunCell(t, func(ctx context.Context, g campaign.Grid, spec campaign.CellSpec, _ int) campaign.Cell {
		select {
		case <-release:
			return fakeCell(g, spec)
		case <-ctx.Done():
			return campaign.Cell{Pattern: spec.Pattern, Procs: spec.Procs, Iterations: spec.Iterations,
				Nodes: spec.Nodes, NDPercent: spec.NDPercent, Runs: g.Runs, Err: ctx.Err()}
		}
	})
	s, ts := newTestServer(t, Config{CellWorkers: 4, SimWorkers: 8})

	// grid1 and grid2 share the (message_race, nd=100) cell; everything
	// else that feeds the fingerprint (runs, seed, kernel) is identical.
	grid1 := `{"patterns":["message_race"],"procs":[4],"iterations":[1],"nodes":[1],"nd_percents":[0,100],"runs":2,"base_seed":7,"kernel":"wl2"}`
	grid2 := `{"patterns":["message_race"],"procs":[4],"iterations":[1],"nodes":[1],"nd_percents":[100,50],"runs":2,"base_seed":7,"kernel":"wl2"}`
	sub1 := submit(t, ts, grid1)
	sub2 := submit(t, ts, grid2)

	// Wait until all three distinct cells are in flight and the shared
	// cell's second request has joined, then let the simulations finish.
	deadline := time.Now().Add(10 * time.Second)
	for s.Store().Inflight() != 3 || s.Store().Joined() != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("inflight=%d joined=%d, want 3/1", s.Store().Inflight(), s.Store().Joined())
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	done1 := waitStatus(t, ts, sub1.ID, StatusDone)
	done2 := waitStatus(t, ts, sub2.ID, StatusDone)

	if s.Store().Misses() != 3 {
		t.Errorf("misses = %d, want 3 (the shared cell must simulate once)", s.Store().Misses())
	}
	// Both jobs' pools race to the store for the shared cell, so either
	// job may compute it: exactly one copy is computed and the other
	// joined or served from the store. Every unshared cell is computed.
	var shared []Source
	for job, done := range []jobResponse{done1, done2} {
		for _, c := range done.Cells {
			if c.NDPercent == 100 {
				shared = append(shared, c.Source)
			} else if c.Source != SourceComputed {
				t.Errorf("job %d cell nd=%g source %q, want computed", job+1, c.NDPercent, c.Source)
			}
		}
	}
	if len(shared) != 2 {
		t.Fatalf("shared cell appears %d times across both jobs, want 2", len(shared))
	}
	computed, reused := 0, 0
	for _, src := range shared {
		switch src {
		case SourceComputed:
			computed++
		case SourceJoined, SourceStore:
			reused++
		}
	}
	if computed != 1 || reused != 1 {
		t.Errorf("shared cell sources %q, want one computed and one joined or store", shared)
	}
}

// TestResubmitServedFromStore is the acceptance criterion in-process:
// submitting the same grid twice performs the simulations once; the
// second job completes entirely from the store with zero new misses.
func TestResubmitServedFromStore(t *testing.T) {
	swapRunCell(t, func(ctx context.Context, g campaign.Grid, spec campaign.CellSpec, _ int) campaign.Cell {
		return fakeCell(g, spec)
	})
	s, ts := newTestServer(t, Config{})

	sub1 := submit(t, ts, smallBody)
	waitStatus(t, ts, sub1.ID, StatusDone)
	missesAfterFirst := s.Store().Misses()
	if missesAfterFirst != 4 {
		t.Fatalf("first submission: misses = %d, want 4", missesAfterFirst)
	}

	sub2 := submit(t, ts, smallBody)
	done2 := waitStatus(t, ts, sub2.ID, StatusDone)
	if got := s.Store().Misses(); got != missesAfterFirst {
		t.Errorf("resubmission simulated: misses %d -> %d", missesAfterFirst, got)
	}
	if s.Store().Hits() != 4 {
		t.Errorf("hits = %d, want 4", s.Store().Hits())
	}
	for _, c := range done2.Cells {
		if c.Source != SourceStore {
			t.Errorf("resubmitted cell %d source %q, want store", c.Index, c.Source)
		}
	}

	// The two jobs' result tables are identical: same grid, same store.
	csv1 := fetchResults(t, ts, sub1.ID, "csv")
	csv2 := fetchResults(t, ts, sub2.ID, "csv")
	if csv1 != csv2 {
		t.Errorf("resubmitted CSV differs:\n--- first\n%s\n--- second\n%s", csv1, csv2)
	}
}

func fetchResults(t *testing.T, ts *httptest.Server, id, format string) string {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/v1/campaigns/" + id + "/results?format=" + format)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != 200 {
		t.Fatalf("results %s: status %d", id, resp.StatusCode)
	}
	return string(raw)
}

// TestCancelJob: DELETE cancels a running job; its results answer 410
// and its event stream still terminates.
func TestCancelJob(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	swapRunCell(t, func(ctx context.Context, g campaign.Grid, spec campaign.CellSpec, _ int) campaign.Cell {
		select {
		case <-release:
			return fakeCell(g, spec)
		case <-ctx.Done():
			return campaign.Cell{Pattern: spec.Pattern, Procs: spec.Procs, Iterations: spec.Iterations,
				Nodes: spec.Nodes, NDPercent: spec.NDPercent, Runs: g.Runs, Err: ctx.Err()}
		}
	})
	s, ts := newTestServer(t, Config{})

	sub := submit(t, ts, smallBody)
	// While running, results answers 202.
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := ts.Client().Get(ts.URL + "/v1/campaigns/" + sub.ID + "/results")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusAccepted {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("results while running: status %d, want 202", resp.StatusCode)
		}
		time.Sleep(time.Millisecond)
	}

	req, err := http.NewRequest("DELETE", ts.URL+"/v1/campaigns/"+sub.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var v struct {
		Job JobView `json:"job"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 || v.Job.Status != StatusCancelled {
		t.Fatalf("cancel: status %d, job %s", resp.StatusCode, v.Job.Status)
	}

	resp, err = ts.Client().Get(ts.URL + "/v1/campaigns/" + sub.ID + "/results")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGone {
		t.Errorf("results after cancel: status %d, want 410", resp.StatusCode)
	}

	// The event log closed with a terminal event; a subscriber drains.
	frames := readSSE(t, ts, sub.Links["events"], "")
	if len(frames) == 0 || frames[len(frames)-1].Type != "done" {
		t.Errorf("cancelled job stream: %+v", frames)
	}
	// Cancelled cells were never stored.
	if s.Store().Len() != 0 {
		t.Errorf("store kept %d cells from a cancelled job", s.Store().Len())
	}
}

// TestGracefulDrain: during Shutdown, new submissions get 503 while the
// in-flight job runs to completion and its results stay fetchable.
func TestGracefulDrain(t *testing.T) {
	release := make(chan struct{})
	swapRunCell(t, func(ctx context.Context, g campaign.Grid, spec campaign.CellSpec, _ int) campaign.Cell {
		select {
		case <-release:
			return fakeCell(g, spec)
		case <-ctx.Done():
			return campaign.Cell{Pattern: spec.Pattern, Procs: spec.Procs, Iterations: spec.Iterations,
				Nodes: spec.Nodes, NDPercent: spec.NDPercent, Runs: g.Runs, Err: ctx.Err()}
		}
	})
	s, ts := newTestServer(t, Config{})

	sub := submit(t, ts, smallBody)
	shutdownErr := make(chan error, 1)
	go func() { shutdownErr <- s.Shutdown(context.Background()) }()

	// Drain flips immediately; submissions start bouncing with 503.
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := ts.Client().Post(ts.URL+"/v1/campaigns", "application/json", strings.NewReader(smallBody))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("submit during drain: status %d, want 503", resp.StatusCode)
		}
		time.Sleep(time.Millisecond)
	}

	close(release)
	if err := <-shutdownErr; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	done := waitStatus(t, ts, sub.ID, StatusDone)
	if done.Job.DoneCells != 4 {
		t.Errorf("drained job finished %d/4 cells", done.Job.DoneCells)
	}
}

// TestDrainGraceExpiry: when the drain context expires, remaining jobs
// are cancelled, Shutdown surfaces the context error, and the job ends
// cancelled rather than wedged.
func TestDrainGraceExpiry(t *testing.T) {
	swapRunCell(t, func(ctx context.Context, g campaign.Grid, spec campaign.CellSpec, _ int) campaign.Cell {
		<-ctx.Done() // never finishes on its own
		return campaign.Cell{Pattern: spec.Pattern, Procs: spec.Procs, Iterations: spec.Iterations,
			Nodes: spec.Nodes, NDPercent: spec.NDPercent, Runs: g.Runs, Err: ctx.Err()}
	})
	s, ts := newTestServer(t, Config{})

	sub := submit(t, ts, smallBody)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("shutdown err = %v, want DeadlineExceeded", err)
	}
	if st := waitStatus(t, ts, sub.ID, StatusCancelled); st.Job.Status != StatusCancelled {
		t.Errorf("job status %s", st.Job.Status)
	}
}

// TestEndToEndRealSimulation runs one genuinely simulated 2-cell grid
// through the full HTTP surface — no fakes — and then resubmits it,
// asserting the second pass does not simulate. This is the in-repo
// twin of the CI serve-smoke gate.
func TestEndToEndRealSimulation(t *testing.T) {
	if testing.Short() {
		t.Skip("real simulations in -short mode")
	}
	s, ts := newTestServer(t, Config{})
	body := `{"patterns":["message_race"],"procs":[4],"iterations":[1],"nodes":[1],"nd_percents":[0,100],"runs":2,"base_seed":42,"kernel":"wl2"}`

	sub := submit(t, ts, body)
	frames := readSSE(t, ts, sub.Links["events"], "")
	if frames[len(frames)-1].Type != "done" {
		t.Fatalf("stream did not end with done: %+v", frames)
	}
	done := waitStatus(t, ts, sub.ID, StatusDone)
	for _, c := range done.Cells {
		if c.Source != SourceComputed || c.Summary == nil || c.Error != "" {
			t.Errorf("cell %d: %+v", c.Index, c)
		}
	}
	// nd=100 must measure more non-determinism than nd=0 — the paper's
	// monotonicity, observable straight through the service.
	if done.Cells[0].Summary.Median > done.Cells[1].Summary.Median {
		t.Errorf("median(nd=0)=%g > median(nd=100)=%g",
			done.Cells[0].Summary.Median, done.Cells[1].Summary.Median)
	}
	misses := s.Store().Misses()

	sub2 := submit(t, ts, body)
	done2 := waitStatus(t, ts, sub2.ID, StatusDone)
	if got := s.Store().Misses(); got != misses {
		t.Errorf("resubmission simulated: misses %d -> %d", misses, got)
	}
	for _, c := range done2.Cells {
		if c.Source != SourceStore {
			t.Errorf("resubmitted cell %d source %q", c.Index, c.Source)
		}
	}
	if csv1, csv2 := fetchResults(t, ts, sub.ID, "csv"), fetchResults(t, ts, sub2.ID, "csv"); csv1 != csv2 {
		t.Errorf("resubmitted CSV differs:\n%s\n---\n%s", csv1, csv2)
	}
}
