"""Run one ``offset6d`` CLI stage in this interpreter and record its timing.

    python3 bench/stage.py RECORD_OUT RUN_ID TRACE STAGE [STAGE ARGS...]

The stage runs exactly as ``python3 -m offset6d.cli STAGE ...`` would: the
package is imported, then the click command is called.  Right before and
right after the command, ``calibrate.reference_work`` measures the machine
speed of the moment.  Four ``calibrate.mark`` readings (``time.perf_counter``,
the system-wide monotonic clock, so the parent can compare them with its own
launch time, and the steal time so far) are taken when the imports are done,
when the command starts, when it ends and when the second reference work
ends.  They, the CPU time of each reference work and the command's span are
written to RECORD_OUT as JSON when the stage ends.  STAGE ``--help`` is the
set-up launch: the package is imported and the CLI prints its usage.

With TRACE = 1, every function named in ``layers.py`` is first wrapped where
it is defined and everywhere it was imported under the ``offset6d`` package
(``offset6d.cli.add_s`` and ``offset6d.metrics.add_s`` both), so calls
between modules are seen too.  Spans stay in memory until the stage ends.
The process exits with the stage's own exit code.
"""

from __future__ import annotations

import time

_PROCESS_T0 = time.perf_counter()

import functools  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))

from calibrate import mark, reference_work  # noqa: E402
from layers import LAYER_FUNCTIONS, STAGE_STEM  # noqa: E402


class Recorder:
    """Span recorder: one span per wrapped call, parented by call nesting."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list = []
        self._stack: list[int] = []
        self.counts = {
            "encoding.pixels": 0,
            "solver.degenerate": 0,
            "metrics.add_s.point_pairs": 0,
            "metrics.models": 0,
        }
        self._add_s_keys: set = set()

    def span(self, name: str, fn, args, kwargs, observe=None):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        result = error = None
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            return result
        except BaseException as exc:
            error = exc
            raise
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self.run_id)
            if observe is not None:  # counted outside the span
                observe(self, args, result, error)

    def dump(self, path: str, stage: str, import_s: float, marks: list, reference_cpu_s: list,
             exit_code: int) -> None:
        payload = {
            "run_id": self.run_id,
            "stage": stage,
            "import_s": import_s,
            "marks": marks,
            "reference_cpu_s": reference_cpu_s,
            "exit_code": exit_code,
            "counts": dict(self.counts, **{"metrics.add_s.distinct": len(self._add_s_keys)}),
            "spans": self.spans,
        }
        Path(path).write_text(json.dumps(payload))


def _observe_encode_input(rec, args, result, exc):
    if result is not None:
        rec.counts["encoding.pixels"] += len(result)


def _observe_solve(rec, args, result, exc):
    from offset6d.errors import DegenerateConfigurationError

    if isinstance(exc, DegenerateConfigurationError):
        rec.counts["solver.degenerate"] += 1


def _observe_add_s(rec, args, result, exc):
    pred, gt, model = args[:3]
    m = model.points.shape[0]
    rec.counts["metrics.add_s.point_pairs"] += m * m
    rec._add_s_keys.add(
        (pred.rotation.tobytes(), pred.translation.tobytes(),
         gt.rotation.tobytes(), gt.translation.tobytes(), id(model))
    )


_OBSERVERS = {
    "encoding.encode_input": _observe_encode_input,
    "solver.solve_from_constraints": _observe_solve,
    "metrics.add_s": _observe_add_s,
}


def install(rec: Recorder) -> None:
    """Wrap every listed function at its definition and at each import site."""
    from offset6d import metrics

    modules = [m for n, m in list(sys.modules.items()) if n == "offset6d" or n.startswith("offset6d.")]
    for layer, fns in LAYER_FUNCTIONS.items():
        home = sys.modules[f"offset6d.{layer}"]
        for fn_name in fns:
            original = getattr(home, fn_name)
            name = f"{layer}.{fn_name}"
            observe = _OBSERVERS.get(name)

            def traced(*args, _name=name, _fn=original, _observe=observe, **kwargs):
                return rec.span(_name, _fn, args, kwargs, _observe)

            functools.update_wrapper(traced, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, traced)

    post_init = metrics.ObjectModel.__post_init__

    def counted_post_init(self):
        rec.counts["metrics.models"] += 1
        return post_init(self)

    metrics.ObjectModel.__post_init__ = counted_post_init


def main(argv: list[str]) -> int:
    record_out, run_id, trace, stage_args = argv[0], argv[1], argv[2] == "1", argv[3:]
    stem = STAGE_STEM.get(stage_args[0], "setup")
    import offset6d.cli

    marks = [mark()]
    import_s = marks[0][0] - _PROCESS_T0
    reference_cpu_s = [reference_work()]
    rec = Recorder(run_id)
    if trace:
        install(rec)
    marks.append(mark())
    code = 0
    try:
        rec.span(f"cli.{stem}", offset6d.cli.main, (stage_args,), {"prog_name": "offset6d"})
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    finally:
        marks.append(mark())
        reference_cpu_s.append(reference_work())
        marks.append(mark())
        rec.dump(record_out, stem, import_s, marks, reference_cpu_s, code)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
