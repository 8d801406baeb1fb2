// Command ccgate fronts N ccserve replicas as one service: a serving
// gateway with active health checking, cache-affine load-aware routing,
// hedged requests, and bounded retries (see internal/cluster).
//
// Usage:
//
//	ccgate -replicas http://h1:8844,http://h2:8844 [-addr :8840] ...
//	ccgate -replicas-file replicas.txt               # one URL per line
//
// SIGHUP rereads -replicas-file and swaps the replica set without a
// restart; SIGINT/SIGTERM drains (stop admitting, finish in-flight
// scans, then shut the listener down).
//
// -shard-slices N enables scatter/gather slice sharding: scans at least
// N slices deep have their enhancement split into chunks fanned out
// across healthy replicas and reassembled in slice order (bit-identical
// to single-replica output), so single-scan latency scales with the
// replica count. -shard-chunk fixes the chunk size; with
// -shard-enhance-slice set, the chunk size is the one minimizing the
// predicted enhancement makespan (per-slice time plus
// -shard-chunk-overhead per chunk) instead.
//
// API:
//
//	POST /v1/scan        synchronous: routed, hedged, retried; 200 + result
//	GET  /v1/scan/{id}   re-fetch a finished scan (id form "<id>@<replica>")
//	GET  /v1/replicas    replica set with health, inflight, EWMA latency
//	GET  /healthz /readyz /metrics
package main

import (
	"context"
	"errors"
	"flag"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"computecovid19/internal/cluster"
	"computecovid19/internal/obs"
)

func main() {
	addr := flag.String("addr", ":8840", "listen address")
	replicas := flag.String("replicas", "", "comma-separated replica base URLs")
	replicasFile := flag.String("replicas-file", "", "file with one replica URL per line (reread on SIGHUP)")
	healthInterval := flag.Duration("health-interval", 500*time.Millisecond, "active /readyz probe period")
	ejectAfter := flag.Int("eject-after", 3, "consecutive failures before ejecting a replica")
	readmitAfter := flag.Int("readmit-after", 2, "consecutive probe successes before readmitting")
	maxRetries := flag.Int("max-retries", 3, "retry budget per scan after the first attempt")
	noHedge := flag.Bool("no-hedge", false, "disable hedged requests")
	hedgeMax := flag.Duration("hedge-max", time.Second, "upper clamp on the adaptive hedge delay")
	deadline := flag.Duration("deadline", 2*time.Minute, "default per-scan deadline (caps retries, hedges, polling)")
	shardSlices := flag.Int("shard-slices", 0, "scatter/gather enhancement for scans at least this many slices deep (0 disables sharding)")
	shardChunk := flag.Int("shard-chunk", 0, "fixed chunk size in slices for sharded scans (0 = auto from healthy replica count)")
	shardEnhanceSlice := flag.Duration("shard-enhance-slice", 0, "measured per-slice enhancement time feeding the chunk-size model (0 = no model)")
	shardChunkOverhead := flag.Duration("shard-chunk-overhead", time.Millisecond, "per-chunk dispatch overhead for the chunk-size model")
	drainTimeout := flag.Duration("drain-timeout", 60*time.Second, "max time to finish in-flight scans on shutdown")
	tracePath := flag.String("trace", "", "write a Chrome trace_event JSON file on exit")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address")
	flag.Parse()

	log := obs.Log()
	flush, err := obs.Setup(*tracePath, "", *pprofAddr)
	if err != nil {
		log.Error("telemetry setup failed", "err", err)
		os.Exit(1)
	}

	urls, err := loadReplicaURLs(*replicas, *replicasFile)
	if err != nil {
		log.Error("replica list", "err", err)
		os.Exit(1)
	}

	g, err := cluster.New(cluster.Config{
		Replicas:           urls,
		HealthInterval:     *healthInterval,
		EjectAfter:         *ejectAfter,
		ReadmitAfter:       *readmitAfter,
		MaxRetries:         *maxRetries,
		DisableHedging:     *noHedge,
		HedgeDelayMax:      *hedgeMax,
		DefaultDeadline:    *deadline,
		ShardSlices:        *shardSlices,
		ShardChunkSlices:   *shardChunk,
		ShardEnhanceSlice:  *shardEnhanceSlice,
		ShardChunkOverhead: *shardChunkOverhead,
	})
	if err != nil {
		log.Error("gateway construction failed", "err", err)
		os.Exit(1)
	}
	g.Start()

	if *replicasFile != "" {
		hup := make(chan os.Signal, 1)
		signal.Notify(hup, syscall.SIGHUP)
		go func() {
			for range hup {
				next, err := loadReplicaURLs("", *replicasFile)
				if err == nil {
					err = g.SetReplicas(next)
				}
				if err != nil {
					// A bad reload keeps the previous set serving.
					log.Error("replica reload rejected", "file", *replicasFile, "err", err)
					continue
				}
				log.Info("replica set reloaded", "file", *replicasFile, "replicas", len(next))
			}
		}()
	}

	httpSrv := &http.Server{Addr: *addr, Handler: g.Handler()}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	go func() {
		<-ctx.Done()
		log.Info("signal received, draining", "timeout", *drainTimeout)
		drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := g.Drain(drainCtx); err != nil {
			log.Error("drain incomplete", "err", err)
		}
		shutCtx, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel2()
		if err := httpSrv.Shutdown(shutCtx); err != nil {
			log.Error("shutdown failed", "err", err)
		}
	}()

	log.Info("gateway serving", "addr", *addr, "replicas", len(urls),
		"hedging", !*noHedge, "max_retries", *maxRetries, "shard_slices", *shardSlices)
	if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Error("listener failed", "err", err)
		os.Exit(1)
	}
	log.Info("drained and stopped")
	if err := flush(); err != nil {
		os.Exit(1)
	}
}

// loadReplicaURLs resolves the replica list from -replicas (comma list)
// or -replicas-file (one URL per line, #-comments allowed). Exactly one
// source must be given.
func loadReplicaURLs(list, file string) ([]string, error) {
	switch {
	case list != "" && file != "":
		return nil, errors.New("-replicas and -replicas-file are mutually exclusive")
	case list != "":
		return strings.Split(list, ","), nil
	case file != "":
		b, err := os.ReadFile(file)
		if err != nil {
			return nil, err
		}
		var urls []string
		for _, line := range strings.Split(string(b), "\n") {
			line = strings.TrimSpace(line)
			if line == "" || strings.HasPrefix(line, "#") {
				continue
			}
			urls = append(urls, line)
		}
		if len(urls) == 0 {
			return nil, errors.New(file + ": no replica URLs")
		}
		return urls, nil
	default:
		return nil, errors.New("need -replicas or -replicas-file")
	}
}
