"""Spans and counters around the public functions of each codeloops layer.

The program has no tracing of its own, so the benchmark wraps functions
from outside.  Modules import each other's functions by name (``cli`` binds
``build_loop``, ``loops`` binds ``build_factor_set``, ...), so installing a
hook rebinds *every* module global that holds the original object; patching
only the defining module would leave most call sites untraced.  A hook
whose target no longer exists raises, so a refactor that renames a hooked
function fails the traced run instead of reporting zero.

A span is [name, start, end, parent index, operation id].  Spans stay in
memory; the worker writes them out when the run ends.
"""

from __future__ import annotations

import sys
import time

from codeloops import codes, equivalence, factorset, loops, search

# (span name, owner, attribute): owner is a module (rebinding every global
# alias) or a class (patched in place).  "search.scan" covers both uses of
# the parameter scan: iterating enumerate_reduced and minimal_representation.
SPANNED = (
    ("codes.parse_code", codes, "parse_code"),
    ("codes.coordinate_classes", codes.BinaryCode, "coordinate_classes"),
    ("factorset.build_factor_set", factorset, "build_factor_set"),
    ("loops.build_loop", loops, "build_loop"),
    ("loops.is_moufang", loops, "is_moufang"),
    ("loops.is_associative", loops.CodeLoop, "is_associative"),
    ("loops.classify", loops, "classify"),
    ("search.assemble_generators", search, "assemble_generators"),
    ("equivalence.distinguishing_invariant", equivalence, "distinguishing_invariant"),
    ("equivalence.code_isomorphism", equivalence, "code_isomorphism"),
)

# span names opened outside SPANNED: "cli" by the runner around each
# main() call, "search.scan" by the enumerate_reduced and
# minimal_representation hooks
OTHER_SPANS = ("cli", "search.scan")

COUNTERS = (
    "codes.Codeword.count",
    "search.degenerate",
    "search.minimal.visited",
    "search.minimal.pruned",
    "equivalence.screened",
    "equivalence.isomorphic",
    "equivalence.rejected_by_search",
)


class Tracer:
    """Collects spans and counters while its hooks are installed."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, op]
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.op = -1
        self._stack: list[int] = []
        self._screened: set[int] = set()  # code_isomorphism spans decided by an invariant
        self._restore: list[tuple[object, str, object]] = []

    # -- spans -----------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    # -- hooks -----------------------------------------------------------

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer hooks already installed")
        for name, owner, attr in SPANNED:
            original = getattr(owner, attr)  # AttributeError: hook target gone
            self._rebind(owner, attr, original, self._wrap(name, attr, original))
        original_scan = search.enumerate_reduced
        self._rebind(search, "enumerate_reduced", original_scan,
                     self._wrap_scan(original_scan))
        original_minimal = search.minimal_representation
        self._rebind(search, "minimal_representation", original_minimal,
                     self._wrap_minimal(original_minimal))
        post_init = codes.Codeword.__post_init__
        self._rebind(codes.Codeword, "__post_init__", post_init,
                     self._wrap_codeword(post_init))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _rebind(self, owner, attr: str, original, replacement) -> None:
        if isinstance(owner, type):
            targets = [owner]
        else:
            targets = [
                mod for key, mod in sys.modules.items()
                if (key == "codeloops" or key.startswith("codeloops."))
                and any(value is original for value in vars(mod).values())
            ]
        for target in targets:
            for key, value in list(vars(target).items()):
                if value is original:
                    self._restore.append((target, key, original))
                    setattr(target, key, replacement)

    def _wrap(self, name: str, attr: str, fn):
        tracer = self

        if attr == "code_isomorphism":
            def wrapper(*args, **kwargs):
                idx = tracer.open(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer.close(idx)
                if result is not None:
                    tracer.counters["equivalence.isomorphic"] += 1
                elif idx not in tracer._screened:
                    tracer.counters["equivalence.rejected_by_search"] += 1
                return result
        elif attr == "distinguishing_invariant":
            def wrapper(*args, **kwargs):
                idx = tracer.open(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer.close(idx)
                parent = tracer._stack[-1] if tracer._stack else -1
                if result is not None and parent >= 0 and (
                    tracer.spans[parent][0] == "equivalence.code_isomorphism"
                ):
                    tracer._screened.add(parent)
                    tracer.counters["equivalence.screened"] += 1
                return result
        elif attr == "assemble_generators":
            def wrapper(*args, **kwargs):
                idx = tracer.open(name)
                try:
                    return fn(*args, **kwargs)
                except codes.InvalidCodeError:
                    tracer.counters["search.degenerate"] += 1
                    raise
                finally:
                    tracer.close(idx)
        else:
            def wrapper(*args, **kwargs):
                idx = tracer.open(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer.close(idx)
        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_scan(self, fn):
        tracer = self

        class ScanIterator:
            def __init__(self, inner):
                self._inner = inner

            def __iter__(self):
                return self

            def __next__(self):
                idx = tracer.open("search.scan")
                try:
                    return next(self._inner)
                finally:
                    tracer.close(idx)

        def wrapper(*args, **kwargs):
            idx = tracer.open("search.scan")
            try:
                inner = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            return ScanIterator(inner)

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_minimal(self, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            idx = tracer.open("search.scan")
            try:
                rep, cert = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            tracer.counters["search.minimal.visited"] += cert.visited
            tracer.counters["search.minimal.pruned"] += cert.pruned
            return rep, cert

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_codeword(self, fn):
        counters = self.counters

        def wrapper(self_):
            counters["codes.Codeword.count"] += 1
            fn(self_)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- results ---------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per span name: calls, total and self seconds; plus the counters."""
        calls: dict[str, int] = {}
        total: dict[str, float] = {}
        child: dict[str, float] = {}
        for name, start, end, parent, _ in self.spans:
            dur = end - start
            calls[name] = calls.get(name, 0) + 1
            total[name] = total.get(name, 0.0) + dur
            if parent >= 0:
                pname = self.spans[parent][0]
                child[pname] = child.get(pname, 0.0) + dur
        out: dict[str, float] = {}
        for name in [n for n, _, _ in SPANNED] + list(OTHER_SPANS):
            out[f"{name}.calls"] = calls.get(name, 0)
            out[f"{name}.s"] = total.get(name, 0.0)
            out[f"{name}.self_s"] = total.get(name, 0.0) - child.get(name, 0.0)
        out.update(self.counters)
        assembled = out["search.assemble_generators.calls"]
        out["search.useful_ratio"] = (
            (assembled - out["search.degenerate"]) / assembled if assembled else 0.0
        )
        return out
