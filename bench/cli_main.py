"""Run the andorxy command line as ``python -m andorxy.cli`` does.

Usage: python cli_main.py SRC_DIR ARGS...

Before running, checks that andorxy was imported from under SRC_DIR, so a
benchmark child process never measures an installed copy.  Exit code 70
reports a failed check; every other code is the command's own.
"""

import os
import runpy
import sys

src = os.path.join(os.path.realpath(sys.argv.pop(1)), "")

import andorxy  # noqa: E402

if not os.path.realpath(andorxy.__file__).startswith(src):
    print(f"andorxy was imported from {andorxy.__file__}, not from {src}", file=sys.stderr)
    sys.exit(70)
sys.argv[0] = "andorxy"
runpy.run_module("andorxy.cli", run_name="__main__", alter_sys=True)
