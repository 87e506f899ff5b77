"""Paper-protocol performance benchmark of the repro package (see README.md)."""
