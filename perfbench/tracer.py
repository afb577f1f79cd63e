"""Run the doubled-odd command line in this process with its layers traced.

    python3 perfbench/tracer.py TRACE.json verify --m 3 ...

Imports ``doubled_odd.cli`` (timing the import), wraps every public function
of the traced modules and the hot ``SparseExactMatrix``/``SpanBasis`` methods
in a span, runs ``cli.main`` on the remaining arguments and writes the span
table and work counters to TRACE.json.  The process exits with the code
``main`` returned, so the report on stdout is the same as an untraced run's.

The package source is not touched: every wrapper is installed by rebinding
names at run time.  A wrapper must sit on the binding the caller looks up,
so each wrapped function replaces every module attribute of the package that
holds the same object (``checks._center_basis`` is ``terwilliger.center_basis``
under another name, ``terwilliger.algebra_closure`` is the ``linalg`` one),
and methods are replaced on their class.

A span's time and call count are taken at the outermost call of its name
only, so recursion and the nested ``insert`` inside ``inserted_row`` are not
counted twice.  Self time is a call's duration minus the time its direct
child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
from fractions import Fraction

TRACED_MODULES = ("combinatorics", "orbits", "linalg", "terwilliger", "covering", "checks", "cli")

# (class, method) -> span name; the two reduce variants and the two insert
# variants share a name so that merging either pair does not move a counter
METHOD_SPANS = {
    ("SparseExactMatrix", "__matmul__"): "linalg.matmul",
    ("SpanBasis", "reduce"): "linalg.reduce",
    ("SpanBasis", "reduce_with_coefficients"): "linalg.reduce",
    ("SpanBasis", "insert"): "linalg.insert",
    ("SpanBasis", "inserted_row"): "linalg.insert",
}


class Tracer:
    """Per-name span totals plus the results the counters are read from."""

    def __init__(self):
        self.stats: dict[str, list[int]] = {}  # name -> [calls, total_ns, self_ns]
        self._stack: list[list[int]] = []  # child_ns of each open span
        self._depth: dict[str, int] = {}
        self.closures: list = []
        self.bases: list = []
        self.cache_hits = 0
        self.cache_misses = 0
        self.cache_paths: list = []
        self.export_paths: list = []

    def wrap(self, name: str, fn):
        stats = self.stats.setdefault(name, [0, 0, 0])
        stack = self._stack
        depth = self._depth
        clock = time.perf_counter_ns
        observe = getattr(self, "_observe_" + name.replace(".", "_"), None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            outermost = not depth.get(name)
            depth[name] = depth.get(name, 0) + 1
            frame = [0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                depth[name] -= 1
                if stack:
                    stack[-1][0] += elapsed
                stats[2] += elapsed - frame[0]
                if outermost:
                    stats[0] += 1
                    stats[1] += elapsed
            if observe is not None:
                observe(result)
            return result

        return traced

    # observers only keep references; the counters are computed in report()
    # so that no span pays for them

    def _observe_linalg_algebra_closure(self, result):
        self.closures.append(result)

    def _observe_terwilliger_build_terwilliger(self, result):
        self.bases.append(result.basis)

    def _observe_terwilliger_center_basis(self, result):
        self.bases.append(result)

    def _observe_checks_load_basis(self, result):
        if result is None:
            self.cache_misses += 1
        else:
            self.cache_hits += 1
            self.bases.append(result)

    def _observe_checks_cache_basis(self, result):
        self.cache_paths.append(result)

    def _observe_checks_export_matrices(self, result):
        self.export_paths.extend(result)

    def report(self) -> dict:
        products = sum(c.iterations for c in self.closures)
        closure_dim = sum(c.basis.dimension for c in self.closures)
        bases = list({id(b): b for b in self.bases}.values())
        nnz = 0
        max_den = 0
        for basis in bases:
            for row in basis.rows:
                nnz += len(row)
                for v in row.values():
                    max_den = max(max_den, v.denominator if type(v) is Fraction else 1)
        return {
            "spans": {
                name: {"calls": calls, "total_s": total / 1e9, "self_s": own / 1e9}
                for name, (calls, total, own) in sorted(self.stats.items())
            },
            "counters": {
                "closure_products": products,
                "closure_dim": closure_dim,
                "max_denominator": max_den,
                "basis_nnz": nnz,
                "cache_hits": self.cache_hits,
                "cache_misses": self.cache_misses,
                "cache_bytes": sum(os.path.getsize(p) for p in self.cache_paths),
                "export_files": len(self.export_paths),
                "export_bytes": sum(os.path.getsize(p) for p in self.export_paths),
            },
        }


def install(tracer: Tracer) -> None:
    """Wrap the public functions of TRACED_MODULES and the METHOD_SPANS."""
    modules = [importlib.import_module(f"doubled_odd.{name}") for name in TRACED_MODULES]
    package = [
        mod for name, mod in list(sys.modules.items())
        if name == "doubled_odd" or name.startswith("doubled_odd.")
    ]
    for short, mod in zip(TRACED_MODULES, modules):
        for attr, fn in list(vars(mod).items()):
            if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                continue
            traced = tracer.wrap(f"{short}.{attr}", fn)
            for holder in package:
                for key, value in list(vars(holder).items()):
                    if value is fn:
                        setattr(holder, key, traced)
    linalg = importlib.import_module("doubled_odd.linalg")
    for (cls_name, method), span in METHOD_SPANS.items():
        cls = getattr(linalg, cls_name)
        setattr(cls, method, tracer.wrap(span, vars(cls)[method]))


def main(argv: list[str]) -> int:
    trace_path, cli_args = argv[0], argv[1:]
    start = time.perf_counter()
    import doubled_odd.cli as cli

    import_s = time.perf_counter() - start
    tracer = Tracer()
    install(tracer)
    code = None
    try:
        code = cli.main(cli_args)
    finally:
        payload = {"import_s": import_s, "exit_code": code, **tracer.report()}
        with open(trace_path, "w") as fh:
            json.dump(payload, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
