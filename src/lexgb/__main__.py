"""python -m lexgb <command> ...: the command-line front end of `cli`."""

import sys

from .cli import main

# a worker process started by spawn imports this module under another name
if __name__ == "__main__":
    sys.exit(main())
