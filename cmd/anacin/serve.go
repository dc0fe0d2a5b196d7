package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/anacin-go/anacinx/internal/serve"
	"github.com/anacin-go/anacinx/internal/trace"
)

// cmdServe runs the anacind campaign service: a long-running HTTP
// server that accepts campaign grids, streams per-cell progress over
// SSE, and serves results from a content-addressed store.
func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	fs.Usage = func() {
		fmt.Fprint(fs.Output(), `usage: anacin serve [flags]

Serves the campaign pipeline over HTTP (docs/anacind.md):

  POST   /v1/campaigns                submit a grid (JSON) -> job id
  GET    /v1/campaigns                list jobs
  GET    /v1/campaigns/{id}           job status + per-cell states
  GET    /v1/campaigns/{id}/events    live progress/ETA (SSE; replays
                                      history, ends after 'done')
  GET    /v1/campaigns/{id}/results   finished results (json|csv|markdown)
  DELETE /v1/campaigns/{id}           cancel a job
  GET    /v1/stats                    store hit/miss/dedupe counters
  GET    /healthz                     liveness

Every grid cell is keyed by a content fingerprint of (pattern, procs,
iters, nodes, nd, runs, seed, kernel config): overlapping concurrent
submissions dedupe to one simulation, and resubmitting a grid answers
entirely from the store without simulating.

SIGINT/SIGTERM drain gracefully: new submissions get 503 while
in-flight jobs finish, up to -grace, then remaining jobs are cancelled.

flags:
`)
		fs.PrintDefaults()
	}
	addr := fs.String("addr", "127.0.0.1:8080", "listen address (use :0 for an ephemeral port)")
	cellWorkers := fs.Int("workers", 0, "concurrent cells per job (0 = one per core)")
	simWorkers := fs.Int("simworkers", 0, "concurrent cell computations across jobs, each running up to cores/cells-in-flight simulations (0 = one per core)")
	maxCells := fs.Int("maxcells", serve.DefaultMaxCells, "reject grids with more cells")
	maxRuns := fs.Int("maxruns", serve.DefaultMaxRuns, "reject grids with more runs per cell")
	grace := fs.Duration("grace", 30*time.Second, "graceful-drain budget on SIGINT/SIGTERM")
	archive := fs.String("archive", "", "archive every run's v2 trace under this directory\n(<dir>/<cell-fingerprint>/run-<i>.anctr, replayable with 'anacin replay')")
	compressLevel := fs.Int("compress-level", 0, "DEFLATE level for archived traces (-2..9; 0 = format default,\nBestSpeed). Changes archived bytes; applies with -archive")
	portFile := fs.String("portfile", "", "write the bound address to this file once listening (for scripts using :0)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	codec := trace.CodecOptions{Level: *compressLevel}
	if err := codec.Validate(); err != nil {
		return fmt.Errorf("-compress-level: %w", err)
	}

	logger := log.New(os.Stderr, "", log.LstdFlags)
	s := serve.New(serve.Config{
		CellWorkers: *cellWorkers,
		SimWorkers:  *simWorkers,
		MaxCells:    *maxCells,
		MaxRuns:     *maxRuns,
		ArchiveDir:  *archive,
		Codec:       codec,
		Log:         logger,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	logger.Printf("anacind: listening on http://%s", ln.Addr())
	if *portFile != "" {
		if err := os.WriteFile(*portFile, []byte(ln.Addr().String()), 0o644); err != nil {
			ln.Close()
			return fmt.Errorf("portfile: %w", err)
		}
	}

	httpSrv := &http.Server{Handler: s.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-serveErr:
		return fmt.Errorf("serve: %w", err)
	case <-ctx.Done():
	}
	stop()
	logger.Printf("anacind: signal received, draining (grace %s)", *grace)

	drainCtx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	drainErr := s.Shutdown(drainCtx)
	if err := httpSrv.Shutdown(drainCtx); err != nil {
		// In-flight SSE streams of cancelled jobs may hold connections
		// past the grace budget; closing is the documented fallback.
		httpSrv.Close()
	}
	if drainErr != nil && !errors.Is(drainErr, context.DeadlineExceeded) {
		return drainErr
	}
	logger.Printf("anacind: shut down")
	return nil
}
