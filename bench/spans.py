"""Outside-in span recorder for the plzig benchmark.

The library carries no instrumentation, so the benchmark wraps the public
functions of each layer from the outside.  A function is wrapped at every
module binding that holds it: ``from .plmap import compose`` gives
``factorize``, ``dynamics``, ``zigzag`` and ``cli`` their own names for the
same function object, and each of those names is replaced.  Two methods
are wrapped on their class: ``PLMap.__call__`` and ``IterateCache.power``.

Spans are kept in memory as ``[name, parent, start, end]`` rows and are
summarized, or written out, once a pass has ended.  The wrappers are
installed for a traced pass only and removed after it, so untraced passes
run the library unchanged.
"""

from __future__ import annotations

import gzip
import sys
from collections import Counter
from time import perf_counter

# (module, attribute or "Class.method", span name); module-level functions
# are found by identity in every plzig module, methods are patched on their
# class.
TARGETS = (
    ("plzig.plmap", "compose", "plmap.compose"),
    ("plzig.plmap", "level_crossings", "plmap.level_crossings"),
    ("plzig.plmap", "make_plmap", "plmap.make_plmap"),
    ("plzig.plmap", "PLMap.__call__", "plmap.eval"),
    ("plzig.zigzag", "zigzag_set", "zigzag.zigzag_set"),
    ("plzig.zigzag", "is_in_zigzag", "zigzag.is_in_zigzag"),
    ("plzig.dynamics", "post_critical_orbits", "dynamics.post_critical_orbits"),
    ("plzig.dynamics", "markov_partition", "dynamics.markov_partition"),
    ("plzig.dynamics", "is_leo", "dynamics.is_leo"),
    ("plzig.dynamics", "is_primitive", "dynamics.is_primitive"),
    ("plzig.dynamics", "uniformly_onto", "dynamics.uniformly_onto"),
    ("plzig.dynamics", "branch_stabilization", "dynamics.branch_stabilization"),
    ("plzig.dynamics", "IterateCache.power", "dynamics.IterateCache.power"),
    ("plzig.factorize", "certify_general", "factorize.certify"),
    ("plzig.factorize", "certify_minc", "factorize.certify"),
    ("plzig.factorize", "split_case1", "factorize.split"),
    ("plzig.factorize", "split_case2", "factorize.split"),
    ("plzig.factorize", "certificate_to_json", "factorize.to_json"),
    ("plzig.factorize", "certificate_from_dict", "factorize.from_dict"),
    ("plzig.factorize", "verify_certificate", "factorize.verify"),
    ("plzig.cli", "main", "cli.main"),
)


class Recorder:
    """Spans and exact counters of the current pass."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[list] = []  # [name id, parent index, start, end]
        self.outermost: list[bool] = []  # no enclosing span of the same name
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._depth: Counter = Counter()
        self._patched: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.spans = []
        self.outermost = []
        self.counters = Counter()
        self._stack = []
        self._depth = Counter()

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, fn, name: str, extra=None):
        nid = self.name_id(name)
        rec = self

        def wrapper(*args, **kwargs):
            stack = rec._stack
            idx = len(rec.spans)
            row = [nid, stack[-1] if stack else -1, 0.0, 0.0]
            rec.spans.append(row)
            rec.outermost.append(rec._depth[nid] == 0)
            rec._depth[nid] += 1
            stack.append(idx)
            out = exc = None
            row[2] = perf_counter()
            try:
                out = fn(*args, **kwargs)
                return out
            except BaseException as e:
                exc = e
                raise
            finally:
                row[3] = perf_counter()
                stack.pop()
                rec._depth[nid] -= 1
                if extra is not None:
                    extra(rec.counters, args, kwargs, out, exc)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def install(self) -> None:
        """Wrap every target at every binding in the loaded plzig modules."""
        from plzig.plmap import BudgetExceededError, laps

        def compose_extra(counters, args, kwargs, out, exc):
            outer = args[0] if args else kwargs["outer"]
            inner = args[1] if len(args) > 1 else kwargs["inner"]
            counters["plmap.compose.in_bp"] += len(outer.points) + len(inner.points)
            if out is not None:
                counters["plmap.compose.out_bp"] += len(out.points)
            elif isinstance(exc, BudgetExceededError):
                counters["plmap.compose.refused"] += 1

        def zigzag_extra(counters, args, kwargs, out, exc):
            f = args[0] if args else kwargs["f"]
            counters["zigzag.zigzag_set.in_bp"] += len(f.points)
            counters["zigzag.zigzag_set.laps"] += max(len(laps(f)) - 2, 0)

        extras = {"plmap.compose": compose_extra, "zigzag.zigzag_set": zigzag_extra}
        modules = [m for n, m in sorted(sys.modules.items()) if n == "plzig" or n.startswith("plzig.")]
        for modname, attr, name in TARGETS:
            mod = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[meth]
                self._patch(cls, meth, self._wrap(orig, name, extras.get(name)))
                continue
            orig = getattr(mod, attr)
            wrapped = self._wrap(orig, name, extras.get(name))
            for m in modules:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        self._patch(m, key, wrapped)

    def _patch(self, owner, key: str, value) -> None:
        self._patched.append((owner, key, vars(owner)[key]))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._patched):
            setattr(owner, key, value)
        self._patched = []

    # -- summaries ----------------------------------------------------------

    def summary(self) -> dict[str, float]:
        """Per-name calls, inclusive time and self time of this pass.

        Inclusive time counts only spans with no enclosing span of the same
        name, so recursion is not counted twice.  Self time is a span's
        duration minus the part of it that its direct children cover.
        """
        n = len(self.names)
        calls = [0] * n
        incl = [0.0] * n
        self_t = [0.0] * n
        children: dict[int, list[tuple[float, float]]] = {}
        for nid, parent, t0, t1 in self.spans:
            if parent >= 0:
                children.setdefault(parent, []).append((t0, t1))
        for idx, (nid, parent, t0, t1) in enumerate(self.spans):
            calls[nid] += 1
            if self.outermost[idx]:
                incl[nid] += t1 - t0
            self_t[nid] += (t1 - t0) - _covered(children.get(idx, ()))
        out: dict[str, float] = {}
        for nid, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[nid]
            out[f"{name}.s"] = incl[nid]
            out[f"{name}.self_s"] = self_t[nid]
        out.update(self.counters)
        return out

    def write_spans(self, path) -> None:
        """Write the spans of the current pass as gzipped tab-separated rows."""
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("index\tname\tparent\tstart\tend\n")
            names = self.names
            for idx, (nid, parent, t0, t1) in enumerate(self.spans):
                fh.write(f"{idx}\t{names[nid]}\t{parent}\t{t0:.9f}\t{t1:.9f}\n")


def _covered(intervals) -> float:
    """Length of the union of closed intervals."""
    total = 0.0
    end = None
    start = None
    for a, b in sorted(intervals):
        if end is None or a > end:
            if end is not None:
                total += end - start
            start, end = a, b
        elif b > end:
            end = b
    if end is not None:
        total += end - start
    return total
