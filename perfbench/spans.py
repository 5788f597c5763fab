"""Spans and counters recorded around calls into tateshift's public functions.

The tracer wraps module functions and methods from outside; no file of the
program changes.  A function imported by name into another module (say
``classifying.eval_at``) is wrapped at every binding.  Calls made while no
job span is open, such as the checker's replays, pass through unrecorded.

A span is ``[name, start, end, parent index, job id]``.  A layer's self time
is the duration of its spans less the part their child spans cover, so the
layer self times plus the harness's own time add up to the traced job time.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import Counter
from time import perf_counter

ROOT = "harness.job"

# (module, attribute, metric that receives the span's self time)
SPANNED = (
    ("cli", "run_job", "cli.self_s"),
    ("cli", "dumps", "cli.dumps_s"),
    ("tate_blueshift", "tate_ring", "tate_blueshift.self_s"),
    ("tate_blueshift", "tate_ring_exact", "ring_core.cert_s"),
    ("tate_blueshift", "build_law", "fgl.build_s"),
    ("classifying", "build_classifying_ring", "classifying.ring_build_s"),
    ("classifying", "ClassifyingRing.euler_class", "classifying.euler_s"),
    ("classifying", "certify_root_difference", "classifying.pair_cert_s"),
    ("series", "eval_at", "series.eval_s"),
    ("ring_core", "localize_by_saturation", "ring_core.localize_s"),
    ("ring_core", "zero_product_certificate", "ring_core.cert_s"),
    ("zmod", "howell", "zmod.howell_s"),
    ("zmod", "solve", "zmod.solve_s"),
    ("zmod", "right_kernel", "zmod.solve_s"),
    ("ring_linalg", "is_ntuple", "ring_linalg.tuple_s"),
    ("ring_linalg", "verify_tuple", "ring_linalg.tuple_s"),
    ("ring_linalg", "verify_localized_tuple", "ring_linalg.tuple_s"),
    ("ring_linalg", "roots_to_coeffs", "ring_linalg.roots_s"),
    ("ring_linalg", "vanishing_condition", "ring_linalg.roots_s"),
)

# Hot methods get a counter and no span.
COUNTED = (
    ("ring_core", "FiniteAlgebra.multiply", "ring_core.alg_muls"),
    ("ring_core", "PolyElement.__mul__", "ring_core.poly_muls"),
)

SELF_TIME_METRICS = sorted({metric for _, _, metric in SPANNED} | {"harness.self_s"})
COUNT_METRICS = (
    "zmod.howell_calls", "zmod.howell_rows", "zmod.howell_cells",
    "zmod.solve_calls", "ring_core.localize_calls",
    "ring_core.saturation_chain_len", "ring_core.cert_searches",
    "ring_core.cert_found", "ring_core.cert_products", "ring_core.poly_muls",
    "ring_core.alg_muls", "fgl.builds", "classifying.rank_sum",
    "classifying.euler_calls", "cli.report_bytes",
)


def _count_call(counts, attr, args, result):
    """Work counters taken at the same boundaries as the spans."""
    if attr == "howell":
        mat = args[0]
        counts["zmod.howell_calls"] += 1
        counts["zmod.howell_rows"] += len(mat)
        counts["zmod.howell_cells"] += len(mat) * (len(mat[0]) if mat else 0)
    elif attr in ("solve", "right_kernel"):
        counts["zmod.solve_calls"] += 1
    elif attr == "localize_by_saturation":
        counts["ring_core.localize_calls"] += 1
        counts["ring_core.saturation_chain_len"] += len(result[2])
    elif attr == "zero_product_certificate":
        counts["ring_core.cert_searches"] += 1
        counts["ring_core.cert_found"] += isinstance(result, list)
    elif attr == "build_law":
        counts["fgl.builds"] += 1
    elif attr == "build_classifying_ring":
        counts["classifying.rank_sum"] += result.algebra.rank
    elif attr == "ClassifyingRing.euler_class":
        counts["classifying.euler_calls"] += 1
    elif attr == "dumps":
        counts["cli.report_bytes"] += len(result)


class Tracer:
    """Records spans and counters while installed; holds them in memory."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self._job = None
        self._cert_depth = 0
        self._mark = 0
        self._restore = []

    # -- wrappers ---------------------------------------------------------------

    def _span(self, module, attr, fn):
        tracer = self
        name = f"{module}.{attr}"
        is_cert = attr == "zero_product_certificate"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer._stack:
                return fn(*args, **kwargs)
            idx = len(tracer.spans)
            span = [name, 0.0, 0.0, tracer._stack[-1], tracer._job]
            tracer.spans.append(span)
            tracer._stack.append(idx)
            tracer._cert_depth += is_cert
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                tracer._stack.pop()
                tracer._cert_depth -= is_cert
            _count_call(tracer.counts, attr, args, result)
            return result

        return wrapper

    def _counter(self, metric, fn):
        tracer = self
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._stack:
                counts[metric] += 1
                if tracer._cert_depth:
                    counts["ring_core.cert_products"] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self):
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in sys.modules.items()
                   if name == "tateshift" or name.startswith("tateshift.")]
        wrappers = [(m, a, functools.partial(self._span, m, a)) for m, a, _ in SPANNED]
        wrappers += [(m, a, functools.partial(self._counter, metric))
                     for m, a, metric in COUNTED]
        for module, attr, wrap in wrappers:
            owner = importlib.import_module(f"tateshift.{module}")
            if "." in attr:
                cls, name = attr.split(".")
                owner = getattr(owner, cls)
                self._patch(owner, name, wrap(owner.__dict__[name]))
                continue
            original = getattr(owner, attr)
            wrapper = wrap(original)
            for mod in modules:  # every binding, including by-name imports
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, name, wrapper)

    def _patch(self, owner, name, wrapper):
        self._restore.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    def uninstall(self):
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore = []

    # -- jobs -------------------------------------------------------------------

    def run_job(self, job_id, fn):
        """Run fn inside a root span for job_id."""
        idx = len(self.spans)
        span = [ROOT, 0.0, 0.0, None, job_id]
        self.spans.append(span)
        self._stack.append(idx)
        self._job = job_id
        span[1] = perf_counter()
        try:
            return fn()
        finally:
            span[2] = perf_counter()
            self._stack.clear()
            self._cert_depth = 0
            self._job = None

    def pass_summary(self):
        """Self time per layer and counters for the spans since the last call."""
        metric_of = {f"{m}.{attr}": metric for m, attr, metric in SPANNED}
        metric_of[ROOT] = "harness.self_s"
        first = self._mark
        spans = self.spans[first:]
        covered = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent is not None:
                covered[parent - first] += end - start
        self_times = dict.fromkeys(SELF_TIME_METRICS, 0.0)
        job_s = 0.0
        lowest = 0.0
        for (name, start, end, parent, _), child in zip(spans, covered):
            own = end - start - child
            lowest = min(lowest, own)
            self_times[metric_of[name]] += own
            if parent is None:
                job_s += end - start
        counts = {name: self.counts[name] for name in COUNT_METRICS}
        self.counts.clear()
        self._mark = len(self.spans)
        return {"self_s": self_times, "job_s": job_s, "counts": counts,
                "lowest_self_s": lowest}

    def write(self, path):
        """Write every span held in memory, one JSON array per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span))
                fh.write("\n")
