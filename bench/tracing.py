"""Spans and counters around the package's public functions, from outside.

Tracer.install() replaces each traced function in every gibbsfactor module
namespace that binds it (and each traced method on its class) with a wrapper
that records a span: name, start, end, parent span and run id.  Spans nest
on a stack, so each span's self time is its duration minus the time its
direct child spans cover.  Counters are kept per span name and per
parent -> child edge, which is how work done on behalf of one layer (blocks
tested in the window search, lookups in the Gibbs sweep) is separated from
the same call made elsewhere.  uninstall() restores the original objects.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

import numpy as np

# (module, attribute or Class.method, span name)
TRACED = (
    ("models", "load_model", "models.load_model"),
    ("markov", "stationary_distribution", "markov.stationary_distribution"),
    ("projection", "FactorSystem.__init__", "projection.FactorSystem"),
    ("projection", "FactorSystem.word_product", "projection.FactorSystem.word_product"),
    ("projection", "check_h2", "projection.check_h2"),
    ("projection", "check_topological_markov", "projection.check_topological_markov"),
    ("projection", "log_nu_cylinder", "projection.log_nu_cylinder"),
    ("tmc", "enumerate_words", "tmc.enumerate_words"),
    ("tmc", "enumerate_periodic", "tmc.enumerate_periodic"),
    ("projective", "contraction_coefficient", "projective.contraction_coefficient"),
    ("projective", "apply_normalized", "projective.apply_normalized"),
    ("projective", "projective_distance", "projective.projective_distance"),
    ("potential", "uniform_constants", "potential.uniform_constants"),
    ("potential", "evaluate", "potential.evaluate"),
    ("potential", "periodic_potential", "potential.periodic_potential"),
    ("potential", "perron_data", "potential.perron_data"),
    ("potential", "PointSpec.__init__", "potential.PointSpec"),
    ("potential", "PointSpec.shifted", "potential.PointSpec.shifted"),
    ("potential", "canonical_extension", "potential.canonical_extension"),
    ("potential", "tail_completions", "potential.tail_completions"),
    ("potential", "markov_approx", "potential.markov_approx"),
    ("potential", "holder_variation", "potential.holder_variation"),
    ("gibbs", "bgi_sweep", "gibbs.bgi_sweep"),
    ("gibbs", "invariance_suite", "gibbs.invariance_suite"),
    ("cli", "cmd_check", "cli.check"),
    ("cli", "cmd_potential", "cli.potential"),
    ("cli", "cmd_periodic", "cli.periodic"),
    ("cli", "cmd_holder", "cli.holder"),
    ("cli", "cmd_gibbs", "cli.gibbs"),
)

# the window search / d_const split of uniform_constants is taken at its first
# apply_normalized child
SPLIT_PARENT = "potential.uniform_constants"
SPLIT_CHILD = "projective.apply_normalized"


class _Frame:
    __slots__ = ("name", "span_id", "child_time", "split")

    def __init__(self, name: str, span_id: int):
        self.name = name
        self.span_id = span_id
        self.child_time = 0.0
        self.split = None


PACKAGE = "gibbsfactor"


class Tracer:
    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []
        self.reset(record_spans=False)

    def reset(self, record_spans: bool, run_id: int = 0) -> None:
        """Clear counters (and spans) before one traced script run."""
        self.run_id = run_id
        self.stack: list[_Frame] = []
        self.next_id = 1
        self.spans: list[tuple] | None = [] if record_spans else None
        self.count: dict[str, float] = defaultdict(float)
        self.edges: dict[tuple[str, str], int] = defaultdict(int)

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        for mod_name, attr, span in TRACED:
            owner = sys.modules[f"{PACKAGE}.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._replace(cls, meth, original, self._wrap(span, original))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(span, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._replace(mod, key, original, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._saved):
            setattr(owner, key, original)
        self._saved.clear()

    def _replace(self, owner, key, original, wrapper) -> None:
        self._saved.append((owner, key, original))
        setattr(owner, key, wrapper)

    # -- recording --------------------------------------------------------

    def _wrap(self, name: str, fn):
        tracer = self
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack = tracer.stack
            parent = stack[-1] if stack else None
            frame = _Frame(name, tracer.next_id)
            tracer.next_id += 1
            start = clock()
            if (
                parent is not None
                and name == SPLIT_CHILD
                and parent.name == SPLIT_PARENT
                and parent.split is None
            ):
                parent.split = start
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stack.pop()
                tracer._close(frame, parent, start, clock(), args, None)
                raise
            stack.pop()
            tracer._close(frame, parent, start, clock(), args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _close(self, frame: _Frame, parent, start: float, end: float, args, result) -> None:
        name = frame.name
        count = self.count
        if name == "potential.evaluate" and result is not None:
            name = f"potential.evaluate.{result.mode}"
            count[name + ".terms"] += result.terms_used
        elif name == "tmc.enumerate_words":
            count[name + ".words"] += len(result or ())
        elif name == "tmc.enumerate_periodic":
            count[name + ".points"] += len(result or ())
        elif name == "projective.contraction_coefficient" and result is not None:
            rows, cols = np.shape(args[0])
            count[name + ".max_k"] = max(count[name + ".max_k"], rows, cols)
            if result.phi > 0:
                # the (rows, rows, cols, cols) float64 cross-ratio array
                count[name + ".bytes_computed"] += 8 * rows * rows * cols * cols
        elif name == "potential.periodic_potential" and result is not None:
            pd = result[1]
            count[name + (".eigendata" if pd is not None else ".fallback")] += 1
            count[name + ".iterations"] += pd.iterations if pd is not None else 0
        elif name == SPLIT_PARENT:
            split = frame.split if frame.split is not None else end
            count[name + ".window_s"] += split - start
            count[name + ".d_const_s"] += end - split
        duration = end - start
        count[name + ".calls"] += 1
        count[name + ".s"] += duration
        count[name + ".self_s"] += duration - frame.child_time
        if parent is not None:
            parent.child_time += duration
            self.edges[(parent.name, name)] += 1
        if self.spans is not None:
            self.spans.append(
                (self.run_id, frame.span_id, parent.span_id if parent else 0, name, start, end)
            )

    def write_spans(self, path: str, origin: float) -> None:
        """Tab-separated spans: run, id, parent (0 = none), name, start, end (s)."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("run\tid\tparent\tname\tstart_s\tend_s\n")
            for run, sid, pid, name, start, end in sorted(self.spans or (), key=lambda s: s[4]):
                fh.write(f"{run}\t{sid}\t{pid}\t{name}\t{start - origin:.9f}\t{end - origin:.9f}\n")
