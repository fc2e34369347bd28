"""PeerTrust negotiation benchmark: workloads, layer tracing, runner."""
