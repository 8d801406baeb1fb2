package cluster

import "computecovid19/internal/obs"

// Cluster data-plane telemetry. Every routing, hedging, retry, and
// health decision reports here; the gateway's /metrics endpoint exposes
// the registry. Per-replica inflight is a labelled gauge registered per
// replica (see newReplica).
var (
	requestsTotal  = obs.GetCounter("cluster_requests_total")
	errorsTotal    = obs.GetCounter("cluster_errors_total")
	retriesTotal   = obs.GetCounter("cluster_retries_total")
	hedgesTotal    = obs.GetCounter("cluster_hedges_total")
	hedgeWinsTotal = obs.GetCounter("cluster_hedge_wins_total")
	ejectionsTotal = obs.GetCounter("cluster_ejections_total")
	readmitsTotal  = obs.GetCounter("cluster_readmissions_total")
	reloadsTotal   = obs.GetCounter("cluster_replica_reloads_total")

	// Affinity accounting: how often the consistent-hash owner took the
	// request, and how often that landed on a warm replica cache
	// (measured end-to-end off the replica's X-Cache header).
	affinityRouted = obs.GetCounter("cluster_affinity_routed_total")
	affinityHits   = obs.GetCounter("cluster_affinity_cache_hits_total")

	// Gateway-side end-to-end scan latency (admission to terminal view).
	requestSeconds = obs.GetHistogram("cluster_request_seconds", nil)

	// Scatter/gather sharding: sharded scans, chunks completed, chunk
	// re-dispatches (retries + hedges beyond the first attempt), and
	// whole-scan fallbacks to the unsharded path. The histograms time one
	// chunk round trip and the full scatter→gather window.
	shardScansTotal      = obs.GetCounter("cluster_shard_scans_total")
	shardChunksTotal     = obs.GetCounter("cluster_shard_chunks_total")
	shardRedispatchTotal = obs.GetCounter("cluster_shard_redispatch_total")
	shardFallbacksTotal  = obs.GetCounter("cluster_shard_fallbacks_total")
	shardChunkSeconds    = obs.GetHistogram("cluster_shard_chunk_seconds", nil)
	shardScatterSeconds  = obs.GetHistogram("cluster_shard_scatter_seconds", nil)
)
