"""Per-layer tracing from outside the program.

The tracer replaces each traced public function of linhyp, in every
linhyp module namespace that holds it, with a wrapper that records a span:
name, start, end, parent span and job id.  ``LinearHypergraph.port_tables``
and ``conn_inv`` are only counted.  The wrappers are installed for a
traced job and removed after it, so untraced jobs run the original
functions.  Spans stay in memory in flat arrays and are written out once,
when the run ends.
"""
from __future__ import annotations

import math
import sys
from array import array
from pathlib import Path
from time import perf_counter

LAYERS = {
    "terms": ("parse_term", "type_of", "render_term"),
    "interp": ("interpret", "equal_mod_stmc"),
    "ops": ("compose", "tensor", "trace"),
    "graphs": ("find_isomorphism", "validate", "smooth", "expand"),
    "extract": ("extract_term",),
    "serialize": ("save_graph", "load_graph"),
    "rewrite": ("normalize", "find_matchings", "apply_rewrite",
                "pushout_complement", "pushout"),
    "circuits": ("evaluate", "eval_rules", "read_value_word"),
}
COUNTED_METHODS = ("port_tables", "conn_inv")

# what a span keeps of its function's result, for the ratio metrics
_RESULTS = {
    "rewrite.find_matchings": len,
    "graphs.find_isomorphism": lambda w: int(w is not None),
    "rewrite.normalize": lambda r: len(r.steps),
}

# layer time against input size, fitted on a log-log scale
SIZE_FITS = (("interp.interpret", "edges"), ("rewrite.normalize", "edges"),
             ("graphs.find_isomorphism", "loops"))

# a wrapper adds one frame per traced call, so recursive layers reach
# the interpreter's recursion limit at half the depth; the traced run
# raises the limit by this factor to keep the same inputs passing
RECURSION_HEADROOM = 3


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric as (name, unit), in report order."""
    out = []
    for layer, fns in LAYERS.items():
        for fn in fns:
            name = f"{layer}.{fn}"
            out += [(f"{name}.calls", "count"), (f"{name}.total_ms", "ms"),
                    (f"{name}.self_ms", "ms")]
    out += [(f"graphs.{m}.calls", "count") for m in COUNTED_METHODS]
    out += [("rewrite.find_matchings.hit_ratio", "ratio"),
            ("rewrite.find_matchings.matches_per_call", "count"),
            ("rewrite.normalize.steps", "count"),
            ("circuits.evaluate.unfoldings", "count"),
            ("graphs.find_isomorphism.found_ratio", "ratio")]
    for name, _ in SIZE_FITS:
        out += [(f"{name}.size_exponent", "exponent"),
                (f"{name}.size_points", "count")]
    out += [("trace.jobs", "count"), ("trace.traced_jobs_per_s", "1/s"),
            ("trace.untraced_jobs_per_s", "1/s"),
            ("trace.overhead_ratio", "ratio"), ("trace.job_ms", "ms"),
            ("trace.untraced_share", "ratio")]
    return out


class Tracer:
    def __init__(self) -> None:
        import linhyp.graphs

        self.names: list[str] = []
        self._patches: list[tuple[object, str, object, object]] = []
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == "linhyp" or key.startswith("linhyp.")]
        for layer, fns in LAYERS.items():
            for fn in fns:
                original = getattr(sys.modules[f"linhyp.{layer}"], fn)
                wrapper = self._span_wrapper(len(self.names), original,
                                             _RESULTS.get(f"{layer}.{fn}"))
                self.names.append(f"{layer}.{fn}")
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patches.append(
                                (module, attr, original, wrapper))
        self.method_calls = [0] * len(COUNTED_METHODS)
        cls = linhyp.graphs.LinearHypergraph
        for i, meth in enumerate(COUNTED_METHODS):
            original = vars(cls)[meth]
            self._patches.append(
                (cls, meth, original, self._count_wrapper(i, original)))

        self.job = -1
        self._stack: list[int] = []
        self._active = [0] * len(self.names)
        self.s_name = array("i")
        self.s_parent = array("i")
        self.s_job = array("i")
        self.s_outer = array("b")
        self.s_result = array("i")
        self.s_start = array("d")
        self.s_end = array("d")
        self.job_ms: list[float] = []
        self.job_sizes: list[tuple[int, int]] = []

    # -- wrappers -----------------------------------------------------------

    def _span_wrapper(self, name_id: int, fn, result_of):
        tracer = self

        def traced(*args, **kwargs):
            if tracer.job < 0:
                return fn(*args, **kwargs)
            idx = len(tracer.s_name)
            stack = tracer._stack
            tracer.s_name.append(name_id)
            tracer.s_parent.append(stack[-1] if stack else -1)
            tracer.s_job.append(tracer.job)
            tracer.s_outer.append(tracer._active[name_id] == 0)
            tracer.s_result.append(-1)
            tracer.s_start.append(0.0)
            tracer.s_end.append(0.0)
            stack.append(idx)
            tracer._active[name_id] += 1
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer._active[name_id] -= 1
                stack.pop()
                tracer.s_start[idx] = start
                tracer.s_end[idx] = end
            if result_of is not None:
                tracer.s_result[idx] = result_of(out)
            return out

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__doc__ = fn.__doc__
        return traced

    def _count_wrapper(self, i: int, fn):
        tracer = self

        def counted(*args, **kwargs):
            if tracer.job >= 0:
                tracer.method_calls[i] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    # -- one traced job -----------------------------------------------------

    def run(self, job):
        """Run one job traced; returns (output or None, error or None,
        wall seconds)."""
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(limit * RECURSION_HEADROOM)
        self.job = len(self.job_ms)
        try:
            start = perf_counter()
            try:
                out, err = job.run(), None
            except Exception as exc:  # a failed job is counted, not fatal
                out, err = None, f"{type(exc).__name__}: {exc}"
            elapsed = perf_counter() - start
        finally:
            self.job = -1
            self._stack.clear()
            self._active = [0] * len(self.names)
            sys.setrecursionlimit(limit)
            for owner, attr, original, _ in self._patches:
                setattr(owner, attr, original)
        self.job_ms.append(elapsed * 1e3)
        self.job_sizes.append((job.edges, job.loops))
        return out, err, elapsed

    # -- results --------------------------------------------------------------

    def write(self, path: Path) -> None:
        """All spans as tab-separated text, times in microseconds from the
        first span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        base = self.s_start[0] if self.s_start else 0.0
        with path.open("w") as f:
            f.write("span\tjob\tname\tparent\tstart_us\tend_us\tresult\n")
            for i in range(len(self.s_name)):
                f.write(f"{i}\t{self.s_job[i]}\t{self.names[self.s_name[i]]}"
                        f"\t{self.s_parent[i]}"
                        f"\t{(self.s_start[i] - base) * 1e6:.1f}"
                        f"\t{(self.s_end[i] - base) * 1e6:.1f}"
                        f"\t{self.s_result[i]}\n")

    def metrics(self, untraced_job_ms: list[float]) -> dict[str, float]:
        """Per-layer metrics.  Calls and times are per traced job."""
        n_names = len(self.names)
        calls = [0] * n_names
        total = [0.0] * n_names
        self_t = [0.0] * n_names
        child = [0.0] * len(self.s_name)
        results = [0] * n_names
        hits = [0] * n_names
        covered = 0.0
        jobs = len(self.job_ms)
        per_job = {name: [0.0] * jobs for name, _ in SIZE_FITS}
        fit_ids = {self.names.index(name): name for name, _ in SIZE_FITS}
        for i in range(len(self.s_name)):
            dur = self.s_end[i] - self.s_start[i]
            parent = self.s_parent[i]
            if parent >= 0:
                child[parent] += dur
            else:
                covered += dur
        for i in range(len(self.s_name)):
            k = self.s_name[i]
            dur = self.s_end[i] - self.s_start[i]
            calls[k] += 1
            self_t[k] += dur - child[i]
            if self.s_outer[i]:
                total[k] += dur
                if k in fit_ids:
                    per_job[fit_ids[k]][self.s_job[i]] += dur
            if self.s_result[i] >= 0:
                results[k] += self.s_result[i]
                hits[k] += self.s_result[i] > 0

        def ratio(a: float, b: float) -> float:
            return a / b if b else 0.0

        out: dict[str, float] = {}
        for k, name in enumerate(self.names):
            out[f"{name}.calls"] = ratio(calls[k], jobs)
            out[f"{name}.total_ms"] = ratio(total[k] * 1e3, jobs)
            out[f"{name}.self_ms"] = ratio(self_t[k] * 1e3, jobs)
        for i, meth in enumerate(COUNTED_METHODS):
            out[f"graphs.{meth}.calls"] = ratio(self.method_calls[i], jobs)
        fm = self.names.index("rewrite.find_matchings")
        iso = self.names.index("graphs.find_isomorphism")
        norm = self.names.index("rewrite.normalize")
        ev = self.names.index("circuits.evaluate")
        out["rewrite.find_matchings.hit_ratio"] = ratio(hits[fm], calls[fm])
        out["rewrite.find_matchings.matches_per_call"] = ratio(results[fm], calls[fm])
        out["rewrite.normalize.steps"] = ratio(results[norm], calls[norm])
        out["circuits.evaluate.unfoldings"] = ratio(calls[norm], calls[ev])
        out["graphs.find_isomorphism.found_ratio"] = ratio(hits[iso], calls[iso])
        for name, size_key in SIZE_FITS:
            col = 0 if size_key == "edges" else 1
            points = [(self.job_sizes[j][col], per_job[name][j])
                      for j in range(jobs)
                      if self.job_sizes[j][col] > 0 and per_job[name][j] > 0]
            out[f"{name}.size_exponent"] = log_log_slope(points)
            out[f"{name}.size_points"] = float(len(points))
        traced_s = sum(self.job_ms) / 1e3
        untraced_s = sum(untraced_job_ms) / 1e3
        out["trace.jobs"] = float(jobs)
        out["trace.traced_jobs_per_s"] = ratio(jobs, traced_s)
        out["trace.untraced_jobs_per_s"] = ratio(len(untraced_job_ms), untraced_s)
        out["trace.overhead_ratio"] = ratio(out["trace.traced_jobs_per_s"],
                                            out["trace.untraced_jobs_per_s"])
        out["trace.job_ms"] = ratio(sum(self.job_ms), jobs)
        out["trace.untraced_share"] = 1.0 - ratio(covered, traced_s)
        return out


def log_log_slope(points: list[tuple[float, float]]) -> float:
    """Least-squares slope of log(time) on log(size); 0 when the sizes do
    not vary."""
    xs = [math.log(s) for s, _ in points]
    ys = [math.log(t) for _, t in points]
    if len(set(xs)) < 2:
        return 0.0
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    return sxy / sxx
