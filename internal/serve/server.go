package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"strings"
	"time"

	"github.com/anacin-go/anacinx/internal/trace"
)

// Config tunes a Server. The zero value serves with sensible limits.
type Config struct {
	// CellWorkers caps concurrent cells per job (0 = GOMAXPROCS).
	CellWorkers int
	// SimWorkers caps cell computations in flight across all jobs
	// (0 = GOMAXPROCS). It counts cells, not simulations: each
	// computation holds one slot for the whole cell and runs up to
	// max(1, GOMAXPROCS / cells in flight in its job) simulations at
	// once.
	SimWorkers int
	// MaxCells rejects grids with more cells (0 = DefaultMaxCells).
	MaxCells int
	// MaxRuns rejects grids with more runs per cell (0 = DefaultMaxRuns).
	MaxRuns int
	// MaxBodyBytes caps the request body (0 = DefaultMaxBodyBytes).
	MaxBodyBytes int64
	// ArchiveDir, when non-empty, archives every run's v2 binary trace
	// under <ArchiveDir>/<cell-fingerprint>/run-<i>.anctr, and each run
	// is embedded from its file. The archive is the durable counterpart
	// of the in-memory result store: any archived cell can be
	// re-derived offline with `anacin replay`. Without it, runs reduce
	// in memory and write no file; results are identical either way.
	ArchiveDir string
	// Codec tunes archived-trace compression: its one option is the
	// DEFLATE level (zero is the v2 format default). Each run compresses
	// inline on the goroutine that simulates it.
	Codec trace.CodecOptions
	// Log receives request and lifecycle lines (nil = log.Default()).
	Log *log.Logger
}

// Default admission limits: generous for a course-scale service,
// small enough that one request cannot monopolize the machine.
const (
	DefaultMaxCells     = 1024
	DefaultMaxRuns      = 200
	DefaultMaxBodyBytes = 1 << 20
)

// Server is the anacind campaign service: HTTP handlers over a job
// registry and a content-addressed result store.
type Server struct {
	cfg      Config
	store    *Store
	registry *Registry
	mux      *http.ServeMux
	started  time.Time
}

// New assembles a server from its config.
func New(cfg Config) *Server {
	if cfg.MaxCells <= 0 {
		cfg.MaxCells = DefaultMaxCells
	}
	if cfg.MaxRuns <= 0 {
		cfg.MaxRuns = DefaultMaxRuns
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = DefaultMaxBodyBytes
	}
	if cfg.Log == nil {
		cfg.Log = log.Default()
	}
	store := NewStore()
	s := &Server{
		cfg:      cfg,
		store:    store,
		registry: NewRegistry(store, cfg.CellWorkers, cfg.SimWorkers, cfg.ArchiveDir, cfg.Codec),
		mux:      http.NewServeMux(),
		started:  time.Now(),
	}
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("POST /v1/campaigns", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/campaigns", s.handleList)
	s.mux.HandleFunc("GET /v1/campaigns/{id}", s.handleJob)
	s.mux.HandleFunc("DELETE /v1/campaigns/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /v1/campaigns/{id}/events", s.handleEvents)
	s.mux.HandleFunc("GET /v1/campaigns/{id}/results", s.handleResults)
	return s
}

// Handler returns the HTTP handler tree.
func (s *Server) Handler() http.Handler { return s.mux }

// Store exposes the result store (stats, tests).
func (s *Server) Store() *Store { return s.store }

// Registry exposes the job registry (tests, drain).
func (s *Server) Registry() *Registry { return s.registry }

// Shutdown gracefully drains the server: new submissions are refused
// with 503 while in-flight jobs finish. If ctx expires first, the
// remaining jobs are cancelled (and still waited for) before
// returning ctx's error.
func (s *Server) Shutdown(ctx context.Context) error {
	s.cfg.Log.Printf("anacind: draining (%d job(s) running)", s.runningJobs())
	err := s.registry.Drain(ctx)
	if err != nil {
		s.cfg.Log.Printf("anacind: drain grace expired; jobs cancelled: %v", err)
	} else {
		s.cfg.Log.Printf("anacind: drained")
	}
	return err
}

func (s *Server) runningJobs() int {
	n := 0
	for _, j := range s.registry.Jobs() {
		st := j.Status()
		if st == StatusQueued || st == StatusRunning {
			n++
		}
	}
	return n
}

// httpError is the uniform JSON error shape.
func httpError(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)}) //nolint:errcheck
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// statsView is the /v1/stats payload: store effectiveness and job
// population. misses counts actual simulations; a resubmitted grid
// that fully dedupes leaves it unchanged — the smoke gate's assertion.
type statsView struct {
	UptimeMS int64 `json:"uptime_ms"`
	Store    struct {
		Entries  int    `json:"entries"`
		Inflight int    `json:"inflight"`
		Hits     uint64 `json:"hits"`
		Misses   uint64 `json:"misses"`
		Joined   uint64 `json:"joined"`
	} `json:"store"`
	Jobs struct {
		Total     int `json:"total"`
		Running   int `json:"running"`
		Done      int `json:"done"`
		Cancelled int `json:"cancelled"`
	} `json:"jobs"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	var v statsView
	v.UptimeMS = time.Since(s.started).Milliseconds()
	v.Store.Entries = s.store.Len()
	v.Store.Inflight = s.store.Inflight()
	v.Store.Hits = s.store.Hits()
	v.Store.Misses = s.store.Misses()
	v.Store.Joined = s.store.Joined()
	for _, j := range s.registry.Jobs() {
		v.Jobs.Total++
		switch j.Status() {
		case StatusQueued, StatusRunning:
			v.Jobs.Running++
		case StatusDone:
			v.Jobs.Done++
		case StatusCancelled:
			v.Jobs.Cancelled++
		}
	}
	writeJSON(w, http.StatusOK, v)
}

// submitResponse echoes the admitted job plus its resource links.
type submitResponse struct {
	JobView
	Links map[string]string `json:"links"`
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if ct := r.Header.Get("Content-Type"); ct != "" && !strings.HasPrefix(ct, "application/json") {
		httpError(w, http.StatusUnsupportedMediaType, "content-type %q, want application/json", ct)
		return
	}
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	var req GridRequest
	if err := dec.Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "bad grid json: %v", err)
		return
	}
	if dec.More() {
		httpError(w, http.StatusBadRequest, "bad grid json: trailing data after the grid object")
		return
	}
	grid, err := req.grid(s.cfg.MaxCells, s.cfg.MaxRuns)
	if err != nil {
		httpError(w, http.StatusBadRequest, "invalid grid: %v", err)
		return
	}
	job, err := s.registry.Submit(grid)
	if errors.Is(err, ErrDraining) {
		httpError(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	if err != nil {
		httpError(w, http.StatusBadRequest, "invalid grid: %v", err)
		return
	}
	s.cfg.Log.Printf("anacind: %s submitted: %d cell(s) x %d run(s), kernel %s",
		job.ID, len(job.specs), grid.Runs, grid.Kernel.Name())
	writeJSON(w, http.StatusAccepted, submitResponse{
		JobView: job.View(),
		Links: map[string]string{
			"self":    "/v1/campaigns/" + job.ID,
			"events":  "/v1/campaigns/" + job.ID + "/events",
			"results": "/v1/campaigns/" + job.ID + "/results",
		},
	})
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	jobs := s.registry.Jobs()
	views := make([]JobView, 0, len(jobs))
	for _, j := range jobs {
		views = append(views, j.View())
	}
	writeJSON(w, http.StatusOK, map[string]any{"campaigns": views})
}

func (s *Server) job(w http.ResponseWriter, r *http.Request) (*Job, bool) {
	id := r.PathValue("id")
	j, ok := s.registry.Get(id)
	if !ok {
		httpError(w, http.StatusNotFound, "no campaign %q", id)
		return nil, false
	}
	return j, true
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"job": j.View(), "cells": j.Cells()})
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	j.Cancel()
	<-j.Done()
	s.cfg.Log.Printf("anacind: %s cancelled", j.ID)
	writeJSON(w, http.StatusOK, map[string]any{"job": j.View()})
}

// handleEvents streams the job's event log as Server-Sent Events. The
// full history replays first (or everything after Last-Event-ID on
// reconnect), then live events as cells complete; the stream ends
// after the terminal `done` event, so a plain blocking client reads to
// EOF exactly when the job is over.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		httpError(w, http.StatusInternalServerError, "response writer cannot stream")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	cursor := 0
	if last := r.Header.Get("Last-Event-ID"); last != "" {
		fmt.Sscanf(last, "%d", &cursor) //nolint:errcheck
	}
	log := j.Events()
	for {
		batch, closed, changed := log.Snapshot(cursor)
		for _, ev := range batch {
			if _, err := fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.ID, ev.Type, ev.Data); err != nil {
				return
			}
			cursor = ev.ID
		}
		if len(batch) > 0 {
			fl.Flush()
		}
		if closed && func() bool { b, _, _ := log.Snapshot(cursor); return len(b) == 0 }() {
			return
		}
		select {
		case <-changed:
		case <-r.Context().Done():
			return
		}
	}
}

// handleResults serves the finished campaign. While the job is still
// running it answers 202 with the job view (poll or use the SSE
// stream); a cancelled job answers 410. ?format=csv and
// ?format=markdown reuse the campaign writers, so a service result is
// byte-identical to what `anacin campaign` would have written for the
// same grid.
func (s *Server) handleResults(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	switch j.Status() {
	case StatusQueued, StatusRunning:
		writeJSON(w, http.StatusAccepted, map[string]any{"job": j.View()})
		return
	case StatusCancelled:
		httpError(w, http.StatusGone, "campaign %s was cancelled", j.ID)
		return
	}
	res := j.Result()
	switch format := r.URL.Query().Get("format"); format {
	case "", "json":
		writeJSON(w, http.StatusOK, map[string]any{
			"job":    j.View(),
			"kernel": res.KernelName,
			"cells":  j.Cells(),
		})
	case "csv":
		w.Header().Set("Content-Type", "text/csv")
		writeOrLog(s.cfg.Log, w, func(w io.Writer) error { return res.WriteCSV(w) })
	case "markdown", "md":
		w.Header().Set("Content-Type", "text/markdown")
		writeOrLog(s.cfg.Log, w, func(w io.Writer) error { return res.WriteMarkdown(w) })
	default:
		httpError(w, http.StatusBadRequest, "unknown format %q (want json, csv, or markdown)", format)
	}
}

func writeOrLog(l *log.Logger, w io.Writer, f func(io.Writer) error) {
	if err := f(w); err != nil {
		l.Printf("anacind: writing response: %v", err)
	}
}
