"""Run one ionstrobe CLI command in a fresh process, as a user does.

Usage:
    python3 bench/child.py --meta META.json [--setup-only] [--trace] -- <ionstrobe args>

The package is imported from the checkout's own `src/`, never from an
installed copy. The process records, on the system-wide monotonic clock,
the moment the command handler is entered (the end of set-up: interpreter
start, `import ionstrobe.cli`, config load and validation) and writes it
to META.json together with the exit code. `--setup-only` stops right
there, without running the command's physics. `--trace` wraps the public
functions of every module (see tracer.py) and adds the per-layer metrics
to META.json.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class _SetupDone(Exception):
    """Raised by the handler shim in --setup-only mode."""


def _import_cli():
    if not (SRC / "ionstrobe" / "cli.py").is_file():
        sys.exit(f"bench: no ionstrobe sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import ionstrobe.cli as cli

    if Path(cli.__file__).resolve().parent != SRC / "ionstrobe":
        sys.exit(f"bench: imported ionstrobe from {cli.__file__}, not from {SRC}")
    return cli


def _mark_physics_start(cli, marks: dict, setup_only: bool) -> None:
    """Wrap each command handler so its entry time is recorded."""
    for name, handler in list(cli.COMMANDS.items()):
        def shim(cfg, args, _handler=handler):
            marks["physics_start"] = time.monotonic()
            if setup_only:
                raise _SetupDone
            return _handler(cfg, args)

        shim.__doc__ = handler.__doc__
        cli.COMMANDS[name] = shim


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--meta", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    opts = parser.parse_args()
    argv = opts.argv[1:] if opts.argv[:1] == ["--"] else opts.argv

    cli = _import_cli()
    marks: dict = {}
    tracer = None
    if opts.trace:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        import tracer as tracer_mod

        tracer = tracer_mod.Tracer()
        tracer.install()
    # installed after the tracer so the tracer's cli handler wrappers sit
    # inside the shim and set-up time excludes them
    _mark_physics_start(cli, marks, opts.setup_only)

    try:
        rc = cli.main(argv)
    except _SetupDone:
        rc = 0

    meta = {"rc": rc, "physics_start": marks.get("physics_start")}
    if tracer is not None:
        meta["layers"] = tracer.metrics()
    Path(opts.meta).write_text(json.dumps(meta))
    return rc


if __name__ == "__main__":
    sys.exit(main())
