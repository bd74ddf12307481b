"""Run one `spklab` command with the benchmark's wrappers installed.

    python3 perfbench/traced_cli.py {spans|counts} TRACE_JSON <spklab arguments...>

Wraps the functions of ``spans.MODES[mode]`` from outside the program,
runs ``spklab.cli.main`` on the remaining arguments, then writes the
recorded spans and counters to TRACE_JSON and exits with the command's
status.
"""

import json
import sys

from spklab import cli

import spans


def main(argv: list[str]) -> int:
    mode, trace_path, command = argv[0], argv[1], argv[2:]
    recorder = spans.Recorder()
    recorder.install(spans.MODES[mode])
    try:
        return cli.main(command)
    finally:
        with open(trace_path, "w") as fh:
            json.dump(recorder.dump(), fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
