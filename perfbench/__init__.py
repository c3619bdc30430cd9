"""The repository benchmark: workloads, outside-in layer tracing, smoke test."""
