"""End-to-end benchmark of the slice control plane (see README.md)."""
