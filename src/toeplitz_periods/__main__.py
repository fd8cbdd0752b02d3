"""``python -m toeplitz_periods``: the command-line interface of cli.py."""

from .cli import entry

if __name__ == "__main__":
    entry()
