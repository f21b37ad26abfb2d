"""The repo's performance benchmark: see ``benchmark/README.md``."""
