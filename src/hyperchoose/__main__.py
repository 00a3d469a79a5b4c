"""``python -m hyperchoose``: the same command line as the ``hyperchoose`` script."""

from .cli import entrypoint

if __name__ == "__main__":
    entrypoint()
