package main

import (
	"sort"
	"time"
)

// workload is one set of inputs the benchmark runs.
type workload struct {
	why string
	run func(cfg *config, d time.Duration, tr *tracer) (*runResult, error)
}

func brokerWorkload(why string, k kind) workload {
	return workload{why: why, run: func(cfg *config, d time.Duration, tr *tracer) (*runResult, error) {
		return runBroker(cfg, k, d, tr)
	}}
}

var burstKind = kind{durable: true, maxBatch: 64, sampleEvery: 256, spanEvery: 1024}

var workloads = map[string]workload{
	"spmc-pair": {
		why: "the paper's FFQ^s in the Fig. 3 shape (capacity 1024, closed loop); only the queue runs",
		run: runSPMC,
	},
	"pubsub-burst": brokerWorkload(
		"saturating durable pub/sub over loopback TCP, MaxBatch 64: WAL append, staging hop, lane batch and DELIVER encoding all work per message",
		burstKind),
	"pubsub-paced": brokerWorkload(
		"open-loop Poisson 2000 msg/s, MaxBatch 1, in-memory broker: wake-up and per-frame cost instead of queueing",
		kind{paced: true, maxBatch: 1, sampleEvery: 1, spanEvery: 32}),
	"shm-ingest": brokerWorkload(
		"durable broker fed by an in-process shm publisher (PublishBatch 64), TCP consumer: the shm segment and pump path",
		kind{durable: true, shm: true, sampleEvery: 256, spanEvery: 1024}),
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
