"""`python -m dmlab`: the same command line as the `dmlab` script."""

from .cli import entrypoint

entrypoint()
