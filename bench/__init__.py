"""The repository's benchmark: ``python3 bench/run.py`` (see README.md)."""
