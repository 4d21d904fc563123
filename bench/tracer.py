"""Per-layer tracing of ionstrobe from outside the package.

The layers are the package's modules. `Tracer.install()` wraps each public
function named in LAYERS at every place it is bound: its defining module,
every other `ionstrobe` module that imported it by name, and the CLI's
command table. Wrapping only the defining module would miss calls made
through those other names.

Each wrapped function reports `<module>.<function>.calls`, `.total_s`
(inclusive time) and `.self_s` (total minus the time of the wrapped calls
it made). EXTRA_COUNTERS are read from caches and return values.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import threading
import time

LAYERS: dict[str, tuple[str, ...]] = {
    "config": ("load_config",),
    "hilbert": ("displacement_operator", "squeeze_operator", "coupling_operator",
                "thermal_ensemble", "check_truncation"),
    "dynamics": ("run_pulse_train", "flash_evolve", "free_evolve", "mw_rotation"),
    "sequence": ("run_scan", "characterize_reference_fringe", "sample_detection",
                 "static_pattern_probe"),
    "calibrate": ("tune_pulse_train", "build_decode_tables"),
    "fitting": ("fit_cosine", "fit_wave_pattern", "bootstrap_pattern_uncertainty"),
    "stability": ("simulate_phase_trace", "windowed_phase_stat", "apply_reference_correction"),
    "tableio": ("write_table", "write_decode_tables", "read_decode_tables"),
    # the handlers of the commands the workloads run
    "cli": ("cmd_ramsey_scan", "cmd_pattern_scan", "cmd_trace_phase_space",
            "cmd_squeeze_scan", "cmd_stability"),
}

EXTRA_COUNTERS = (
    "hilbert.state_constructions",
    "dynamics.flash_unitary_builds",
    "dynamics.flash_unitary_hits",
    "dynamics.flash_matvec_bytes",
    "sequence.scan_points",
    "sequence.excitation_builds",
    "calibrate.tune_evaluations",
    "tableio.bytes_written",
)


def metric_names() -> list[str]:
    """Every per-layer metric, in report order."""
    names = []
    for module, funcs in LAYERS.items():
        for func in funcs:
            names += [f"{module}.{func}.calls", f"{module}.{func}.total_s",
                      f"{module}.{func}.self_s"]
    return names + list(EXTRA_COUNTERS)


class _Stat:
    __slots__ = ("calls", "total", "self_time")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0


class Tracer:
    def __init__(self):
        self.stats: dict[str, _Stat] = {}
        self.counters = {name: 0 for name in EXTRA_COUNTERS}
        self._local = threading.local()
        self._caches = {}

    def _stack(self) -> list[float]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, key: str, fn, after=None):
        stat = self.stats[key] = _Stat()
        clock = time.perf_counter
        stack_of = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = stack_of()
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                stat.calls += 1
                stat.total += dt
                stat.self_time += dt - child
                if stack:
                    stack[-1] += dt
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _after_hooks(self) -> dict:
        c = self.counters

        def flash(args, kwargs, result):
            n = result.fock_dim
            c["dynamics.flash_matvec_bytes"] += 16 * (2 * n) ** 2

        def scan(args, kwargs, result):
            c["sequence.scan_points"] += len(result)

        def tune(args, kwargs, result):
            c["calibrate.tune_evaluations"] += result.n_evaluations

        def written(path_index):
            def hook(args, kwargs, result):
                path = kwargs.get("path", args[path_index] if len(args) > path_index else None)
                c["tableio.bytes_written"] += os.path.getsize(path)
            return hook

        return {
            "dynamics.flash_evolve": flash,
            "sequence.run_scan": scan,
            "calibrate.tune_pulse_train": tune,
            "tableio.write_table": written(0),
            "tableio.write_decode_tables": written(1),
        }

    def install(self) -> None:
        hooks = self._after_hooks()
        package = [m for name, m in sys.modules.items()
                   if name == "ionstrobe" or name.startswith("ionstrobe.")]
        cli = importlib.import_module("ionstrobe.cli")
        for module_name, funcs in LAYERS.items():
            module = importlib.import_module(f"ionstrobe.{module_name}")
            for func in funcs:
                key = f"{module_name}.{func}"
                orig = getattr(module, func)
                wrapper = self._wrap(key, orig, hooks.get(key))
                sites = 0
                for mod in package:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, attr, wrapper)
                            sites += 1
                for cmd, handler in list(cli.COMMANDS.items()):
                    if handler is orig:
                        cli.COMMANDS[cmd] = wrapper
                        sites += 1
                if sites == 0:
                    raise RuntimeError(f"{key} is bound nowhere in the package")

        hilbert = importlib.import_module("ionstrobe.hilbert")
        post_init = hilbert.SpinMotionState.__post_init__
        counters = self.counters

        def counted_post_init(state):
            counters["hilbert.state_constructions"] += 1
            post_init(state)

        hilbert.SpinMotionState.__post_init__ = counted_post_init
        self._caches = {
            "dynamics": importlib.import_module("ionstrobe.dynamics")._flash_unitary,
            "sequence": importlib.import_module("ionstrobe.sequence")._excitation_matrix,
        }

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for key, stat in self.stats.items():
            out[f"{key}.calls"] = stat.calls
            out[f"{key}.total_s"] = stat.total
            out[f"{key}.self_s"] = stat.self_time
        flash = self._caches["dynamics"].cache_info()
        excitation = self._caches["sequence"].cache_info()
        self.counters["dynamics.flash_unitary_builds"] = flash.misses
        self.counters["dynamics.flash_unitary_hits"] = flash.hits
        self.counters["sequence.excitation_builds"] = excitation.misses
        out.update(self.counters)
        return out
