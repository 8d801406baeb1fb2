package serve

import "computecovid19/internal/obs"

// Serving telemetry. Each admission, queue, and cache decision
// reports here; /metrics exposes the registry in Prometheus format.
var (
	admittedTotal  = obs.GetCounter("serve_admitted_total")
	rejectedTotal  = obs.GetCounter("serve_rejected_total")
	deadlinesTotal = obs.GetCounter("serve_deadline_exceeded_total")
	cacheHits      = obs.GetCounter("serve_cache_hits_total")
	cacheMisses    = obs.GetCounter("serve_cache_misses_total")
	queueDepth     = obs.GetGauge("serve_queue_depth")

	// End-to-end latency from admission to completion.
	requestSeconds = obs.GetHistogram("serve_request_seconds", nil)

	// Chunk-range enhancement endpoint (the gateway's scatter/gather
	// unit): completions, concurrency-bound rejections, and the
	// synchronous per-chunk service time.
	enhanceChunksTotal   = obs.GetCounter("serve_enhance_chunks_total")
	enhanceChunkRejected = obs.GetCounter("serve_enhance_chunk_rejected_total")
	enhanceChunkSeconds  = obs.GetHistogram("serve_enhance_chunk_seconds", nil)
)
