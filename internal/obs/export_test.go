package obs

// LiveQuantiles feeds samples to a live latency histogram (the type behind
// Snapshot's percentiles and the SLO watcher) and returns its p50, p90 and
// p99, for the external test that holds them against replay's.
func LiveQuantiles(samples []float64) (p50, p90, p99 float64) {
	h := newHist()
	for _, v := range samples {
		h.add(v)
	}
	return h.quantile(0.50), h.quantile(0.90), h.quantile(0.99)
}
