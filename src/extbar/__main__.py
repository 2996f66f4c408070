"""Run the command-line interface as ``python -m extbar``, with the same
commands, output and exit codes as the ``extbar`` script."""

from .cli import main

if __name__ == "__main__":
    main(prog_name="extbar")
