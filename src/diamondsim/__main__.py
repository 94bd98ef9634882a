"""Run the command line with `python -m diamondsim`."""

from .cli import run

if __name__ == "__main__":
    run()
