"""The two-clock end-to-end benchmark (see bench/README.md)."""
