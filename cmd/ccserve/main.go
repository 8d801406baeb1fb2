// Command ccserve runs the ComputeCOVID19+ pipeline as an inference
// service: an HTTP/JSON API backed by a warm worker pool, bounded-queue
// admission control, and a content-addressed result cache.
//
// Usage:
//
//	ccserve [-addr :8844] [-workers 0] [-queue 128] [-cache 256] ...
//
// API:
//
//	POST /v1/scan        {"d":8,"h":32,"w":32,"data":[...HU...]}  → 202 {"id":...}
//	GET  /v1/scan/{id}                                            → job state + result
//	GET  /healthz /readyz /metrics
//
// Overload answers 429 with Retry-After; SIGINT/SIGTERM triggers a
// graceful drain (stop admitting, finish every accepted scan, then shut
// the listener down).
//
// The demo binary serves randomly-initialized demo-scale networks — it
// demonstrates the serving architecture, not trained diagnosis; training
// is cmd/cctrain's job.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"computecovid19/internal/classify"
	"computecovid19/internal/core"
	"computecovid19/internal/ddnet"
	"computecovid19/internal/obs"
	"computecovid19/internal/serve"
)

func main() {
	addr := flag.String("addr", ":8844", "listen address")
	workers := flag.Int("workers", 0, "scans processed at once (0 = GOMAXPROCS)")
	queue := flag.Int("queue", 128, "admission queue depth (full queue answers 429)")
	cacheSize := flag.Int("cache", 256, "result cache entries (negative disables)")
	deadline := flag.Duration("deadline", 0, "default per-request deadline (0 = none)")
	drainTimeout := flag.Duration("drain-timeout", 60*time.Second, "max time to finish accepted scans on shutdown")
	enhance := flag.Bool("enhance", true, "serve with Enhancement AI (false = segment+classify only)")
	seed := flag.Int64("seed", 1, "demo-weight initialization seed")
	tracePath := flag.String("trace", "", "write a Chrome trace_event JSON file on exit")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address")
	flightDir := flag.String("flight-dir", "", "flight-recorder dump directory (enables tracing; dumps on SIGQUIT, deadline-exceeded, and 5xx)")
	sloLatency := flag.Duration("slo-latency", 2*time.Second, "SLO: good-request latency threshold for /v1/scan")
	sloObjective := flag.Float64("slo-objective", 0.95, "SLO: target fraction of requests under the latency threshold")
	sloWindow := flag.Duration("slo-window", time.Hour, "SLO: error-budget accounting window")
	flag.Parse()
	if *workers <= 0 {
		*workers = runtime.GOMAXPROCS(0)
	}

	log := obs.Log()
	flush, err := obs.Setup(*tracePath, "", *pprofAddr)
	if err != nil {
		log.Error("telemetry setup failed", "err", err)
		os.Exit(1)
	}
	if *flightDir != "" {
		// The flight recorder needs span collection even when no trace
		// file was requested.
		obs.Enable()
		defer obs.DumpFlightOnSignal(*flightDir)()
	}

	rng := rand.New(rand.NewSource(*seed))
	var enhancer *ddnet.DDnet
	if *enhance {
		enhancer = ddnet.New(rng, ddnet.TinyConfig())
	}
	pipeline := core.NewPipeline(enhancer, classify.New(rng, classify.SmallConfig()))

	s, err := serve.New(serve.Config{
		Pipeline:        pipeline,
		Workers:         *workers,
		QueueDepth:      *queue,
		CacheSize:       *cacheSize,
		DefaultDeadline: *deadline,
		ModelVersion:    fmt.Sprintf("demo-seed%d", *seed),
		FlightDir:       *flightDir,
		SLO: obs.SLOConfig{
			LatencyThreshold: *sloLatency,
			LatencyObjective: *sloObjective,
			Window:           *sloWindow,
		},
	})
	if err != nil {
		log.Error("server construction failed", "err", err)
		os.Exit(1)
	}
	s.Start()

	httpSrv := &http.Server{Addr: *addr, Handler: s.Handler()}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	go func() {
		<-ctx.Done()
		log.Info("signal received, draining", "timeout", *drainTimeout)
		drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		// Drain first so clients can still poll for their results while
		// accepted scans finish; then close the listener.
		if err := s.Drain(drainCtx); err != nil {
			log.Error("drain incomplete", "err", err)
		}
		shutCtx, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel2()
		if err := httpSrv.Shutdown(shutCtx); err != nil {
			log.Error("shutdown failed", "err", err)
		}
	}()

	log.Info("serving", "addr", *addr, "workers", *workers, "queue", *queue,
		"cache", *cacheSize, "enhance", *enhance, "flight_dir", *flightDir)
	if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Error("listener failed", "err", err)
		os.Exit(1)
	}
	log.Info("drained and stopped")
	// A run whose requested telemetry could not be written must not
	// exit clean.
	if err := flush(); err != nil {
		os.Exit(1)
	}
}
