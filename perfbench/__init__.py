"""The repository benchmark (see METRICS.md)."""
