"""Run one ``statebandits`` CLI study in a fresh process and time its phases.

Usage: ``python3 perfbench/child.py MARKS_FILE -- <statebandits CLI args>``
with ``src`` on ``PYTHONPATH``.

The parent records the spawn time; this process records, on the same
system-wide monotonic clock, when the study handler is entered and left. The
handler is the subcommand function that ``statebandits.cli.main`` dispatches
to after parsing arguments and resolving the config, so everything before
``study_start`` (interpreter start, package import, config resolution) is
set-up. Nothing inside the package is changed.
"""

import json
import sys
import time


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def main() -> int:
    marks_path, sep, *cli_args = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: child.py MARKS_FILE -- <statebandits CLI args>")
    marks = {"child_start": _now()}

    import statebandits.cli as cli

    marks["imported"] = _now()

    def timed(handler):
        def run(args, cfg, seed):
            marks["study_start"] = _now()
            try:
                return handler(args, cfg, seed)
            finally:
                marks["study_end"] = _now()
        return run

    for name, (handler, schema) in list(cli.COMMANDS.items()):
        cli.COMMANDS[name] = (timed(handler), schema)
    code = cli.main(cli_args)
    with open(marks_path, "w", encoding="utf-8") as fh:
        json.dump(marks, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
