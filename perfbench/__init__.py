"""The repository benchmark harness (see README.md in this directory)."""
