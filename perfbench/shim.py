"""One program process: ``toruswave.cli.main`` with set-up timing and optional spans.

Usage: python3 shim.py RESULT_JSON SPAN_DIR|- RUN_ID -- CLI_ARGS...
       python3 shim.py RESULT_JSON - RUN_ID --setup CONFIG

The only change to the program's behaviour is outside-in: the first call of
``cli.build_scenario`` is timed (set-up), and with a span directory every
layer is wrapped by ``spans.install``.  The result holds ``time.perf_counter``
stamps, which the benchmark process can compare with its own.  The exit code
is the program's.  ``--setup`` runs the set-up alone, the ``build_scenario``
call that ``toruswave run CONFIG`` starts with, and exits 0.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from pathlib import Path


def main(argv: list[str]) -> int:
    result_path, span_arg, run_id, sep, *cli_args = argv
    if sep not in ("--", "--setup"):
        raise SystemExit("usage: shim.py RESULT_JSON SPAN_DIR|- RUN_ID --|--setup ARGS...")
    import toruswave
    from toruswave import cli

    if span_arg != "-":
        import spans

        tracer = spans.Tracer()
        spans.install(tracer, toruswave)

    marks: dict[str, float] = {}
    build = cli.build_scenario

    @functools.wraps(build)
    def build_scenario(entries):
        first = "setup_start" not in marks
        if first:
            marks["setup_start"] = time.perf_counter()
        try:
            return build(entries)
        finally:
            if first:
                marks["setup_end"] = time.perf_counter()

    cli.build_scenario = build_scenario
    if sep == "--setup":
        cli.build_scenario(cli.load_config(cli_args[0]))
        code = 0
    else:
        code = cli.main(cli_args)
    done = time.perf_counter()
    if span_arg != "-":
        tracer.dump(Path(span_arg) / "main.spans", run_id)
    Path(result_path).write_text(json.dumps({
        "exit_code": code,
        "module": toruswave.__file__,
        "setup_start": marks["setup_start"],
        "setup_end": marks["setup_end"],
        "done": done,
    }))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
