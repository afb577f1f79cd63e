"""Benchmark of ``doubled-odd verify``: end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload cold-m3 --seed 1 --seconds 20 --trace 0

Runs one workload from the root of a source checkout: the program is taken
from ``src/`` and is never installed.  Every invocation is a fresh
``doubled-odd`` child process, started one at a time from this process (a
closed loop with one client), because the package memoizes its constructions in
``lru_cache`` and an in-process repeat would time memo hits.

``--trace 0`` measures the end-to-end metrics: ``wall_s`` (spawn to exit of
one invocation, median over the run), ``peak_rss_mb`` (the child's
``ru_maxrss``, median) and ``setup_s`` (median of several set-ups, see
Workload); the children's CPU times are recorded with the samples.
``--trace 1`` alternates untraced invocations with invocations run under
``tracer.py`` and reports the per-layer metrics of PER_LAYER.

Every report is checked against the reference reports in ``reference/``
(made from the seed program by ``make_reference.py``) after dropping
``elapsed_ms``; ``cold-m3`` and ``warm-m3`` share one reference, so a warm
run must reproduce the cold reports exactly.  A check counts as failed if its
status is ``fail``, if its report differs from the reference or if its
invocation exited non-zero; an export tree counts as failed if its digest
differs.  ``fail_ratio`` is failed over attempted.

The program takes no random input.  The seed becomes the children's
``PYTHONHASHSEED``, which fixes the one input that differs between runs of
the same command (string hashing, hence dict and set layout); it is recorded
with the result.  The last line of stdout is the JSON result; the line
before it records the run's samples and its machine.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE_DIR = HERE / "reference"
TRACER = HERE / "tracer.py"

# the whole run, set-up included, must end well inside 180 s
RUN_BUDGET_S = 165.0
MIN_TIMED = 3  # timed invocations per run, even when they overrun --seconds
MIN_TRACED = 2  # traced invocations per run, so exact counters can be compared
IMPORT_SETUPS = 15
POPULATE_SETUPS = 3

ORBITS_M4_CHECKS = (
    "vertex-count,index-sets,bijections,centralizer-dim,direct-sum,lemma41,upsilon,psi-intertwining"
)


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    argv is the ``doubled-odd`` command line; "{cache}" and "{export}" are
    replaced per invocation by the set-up's cache (a fresh empty one when
    there is none) and a fresh export directory.  setup is "import" (set-up
    is the fresh-process import of ``doubled_odd.cli``) or "populate" (set-up
    is the cold run that fills the cache the timed invocations read).
    """

    name: str
    argv: tuple[str, ...]
    reference: str
    setup: str


# Why each workload exists and how it should respond to the ROADMAP items:
#   cold-m3: the T closure and the Z(T) solve take ~90% of its time.  Item 2
#     (closure under generators) and item 3 (orbit coordinates) should cut
#     wall_s; item 5 adds only the atomic cache write.
#   warm-m3: the closure and centre are read from the cache, so time goes to
#     load_basis, the export (159 files, ~770 KB) and the exhaustive m <= 3
#     scans.  Item 2 should not move it; item 5's re-certification on load
#     should show here as a cost.
#   orbits-m4: the only n = 252 workload (ambient dimension 63,504): the n^2
#     builds, the centralizer span and 500 sparse products, with no closure,
#     cache or I/O, and the largest RSS.  Item 3 should move it; items 2 and
#     5 should not.
# cold-m4 (a full verify --m 4) is left out while its closure takes ~601 s.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("cold-m3", ("verify", "--m", "3", "--cache-dir", "{cache}"), "m3", "import"),
        Workload(
            "warm-m3",
            ("verify", "--m", "3", "--cache-dir", "{cache}", "--export-dir", "{export}"),
            "m3",
            "populate",
        ),
        Workload("orbits-m4", ("verify", "--m", "4", "--checks", ORBITS_M4_CHECKS), "orbits-m4", "import"),
    )
}

END_TO_END = (("wall_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s"))

# counters that must repeat exactly across traced invocations of one workload
EXACT_COUNTERS = (
    "linalg.closure_products",
    "linalg.matmul_calls",
    "linalg.reduce_calls",
    "linalg.insert_calls",
    "linalg.max_denominator",
    "linalg.basis_nnz",
    "checks.cache_hits",
    "checks.cache_misses",
    "checks.cache_bytes",
    "checks.export_files",
    "checks.export_bytes",
)

CHECK_IDS = (
    "vertex-count", "distance-regular", "index-sets", "bijections", "orbits-oracle",
    "centralizer-dim", "subalgebra-closure", "direct-sum", "lemma41", "terwilliger-dim",
    "inclusion", "equality", "center-dim", "upsilon", "block-profile", "psi-intertwining",
)

# metric name -> (unit, source); sources: ("total"|"self"|"calls", span),
# ("counter", key), ("check", id), ("import",), ("overhead",), ("yield",)
PER_LAYER: dict[str, tuple[str, tuple]] = {
    "combinatorics.intersection_numbers_s": ("s", ("total", "combinatorics.intersection_numbers")),
    "combinatorics.distance_matrices_s": ("s", ("total", "combinatorics.distance_matrices")),
    "orbits.build_centralizer_s": ("s", ("total", "orbits.build_centralizer")),
    "orbits.orbits_by_group_action_s": ("s", ("total", "orbits.orbits_by_group_action")),
    "orbits.check_subalgebra_s": ("s", ("total", "orbits.check_subalgebra")),
    "linalg.matmul_calls": ("count", ("calls", "linalg.matmul")),
    "linalg.matmul_s": ("s", ("total", "linalg.matmul")),
    "linalg.reduce_calls": ("count", ("calls", "linalg.reduce")),
    "linalg.reduce_s": ("s", ("total", "linalg.reduce")),
    "linalg.insert_calls": ("count", ("calls", "linalg.insert")),
    "linalg.insert_s": ("s", ("total", "linalg.insert")),
    "linalg.algebra_closure_s": ("s", ("total", "linalg.algebra_closure")),
    "linalg.algebra_closure_self_s": ("s", ("self", "linalg.algebra_closure")),
    "linalg.centralizer_within_s": ("s", ("total", "linalg.centralizer_within")),
    "linalg.closure_products": ("count", ("counter", "closure_products")),
    "linalg.closure_yield": ("ratio", ("yield",)),
    "linalg.max_denominator": ("count", ("counter", "max_denominator")),
    "linalg.basis_nnz": ("count", ("counter", "basis_nnz")),
    "terwilliger.build_terwilliger_s": ("s", ("total", "terwilliger.build_terwilliger")),
    "terwilliger.center_basis_s": ("s", ("total", "terwilliger.center_basis")),
    "terwilliger.verify_sandwich_identities_s": ("s", ("total", "terwilliger.verify_sandwich_identities")),
    "terwilliger.verify_equality_s": ("s", ("total", "terwilliger.verify_equality")),
    "covering.verify_intertwining_s": ("s", ("total", "covering.verify_intertwining")),
    **{f"checks.{check}_ms": ("ms", ("check", check)) for check in CHECK_IDS},
    "checks.load_basis_s": ("s", ("total", "checks.load_basis")),
    "checks.cache_hits": ("count", ("counter", "cache_hits")),
    "checks.cache_misses": ("count", ("counter", "cache_misses")),
    "checks.cache_basis_s": ("s", ("total", "checks.cache_basis")),
    "checks.cache_bytes": ("bytes", ("counter", "cache_bytes")),
    "checks.export_matrices_s": ("s", ("total", "checks.export_matrices")),
    "checks.export_files": ("count", ("counter", "export_files")),
    "checks.export_bytes": ("bytes", ("counter", "export_bytes")),
    "cli.import_s": ("s", ("import",)),
    "cli.render_s": ("s", ("total", "checks.render_reports")),
    "trace_overhead_s": ("s", ("overhead",)),
}

# written by the set-up run where a workload has one (the cache fill)
SETUP_LAYER_METRICS = ("checks.cache_basis_s", "checks.cache_bytes")


def scratch_root() -> Path:
    """Where runs keep their caches, exports and traces; emptied after each run."""
    root = ROOT / ".perfbench-tmp"
    root.mkdir(exist_ok=True)
    return root


class BenchError(RuntimeError):
    """The benchmark cannot run here (no program, broken checkout)."""


@dataclass
class Invocation:
    wall_s: float
    cpu_s: float
    rss_mb: float
    returncode: int
    stdout: str


@dataclass
class Tally:
    """Checks attempted and failed over a run; every problem makes the run incorrect."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def fail(self, count: int, why: str) -> None:
        self.failed += count
        self.problems.append(why)


def strip_elapsed(reports: list) -> list:
    return [{k: v for k, v in r.items() if k != "elapsed_ms"} if isinstance(r, dict) else r for r in reports]


def load_reference(name: str) -> dict:
    return json.loads((REFERENCE_DIR / f"{name}.json").read_text())


def tree_digest(directory: Path) -> str:
    """sha256 over the sorted file names and contents of a directory."""
    h = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        h.update(path.name.encode() + b"\0")
        h.update(path.read_bytes())
        h.update(b"\0")
    return h.hexdigest()


def check_reports(inv: Invocation, reference: list, tally: Tally, label: str) -> list | None:
    """Compare one invocation's reports with the reference; returns them parsed."""
    tally.attempted += len(reference)
    try:
        reports = json.loads(inv.stdout)
    except ValueError:
        reports = None
    if not isinstance(reports, list):
        tally.fail(len(reference), f"{label}: exit code {inv.returncode}, no report array")
        return None
    if inv.returncode != 0:
        tally.fail(len(reference), f"{label}: exit code {inv.returncode}")
        return reports
    got = strip_elapsed(reports)
    bad = sum(1 for g, r in zip(got, reference) if g != r or g.get("status") == "fail")
    bad += abs(len(got) - len(reference))
    if bad:
        tally.fail(min(bad, len(reference)), f"{label}: {bad} reports differ from the reference")
    return reports


class Runner:
    """Spawns the program's processes one at a time inside a scratch directory."""

    def __init__(self, seed: int, scratch: Path, deadline: float):
        self.scratch = scratch
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        self.env["PYTHONHASHSEED"] = str(seed % 2**32)
        self._count = 0
        self._proc: subprocess.Popen | None = None

    def fresh_path(self, kind: str) -> Path:
        self._count += 1
        return self.scratch / f"{kind}{self._count}"

    def spawn(self, argv: list[str]) -> Invocation:
        """Run one child to completion; wall time from spawn to exit."""
        out_path = self.scratch / "stdout"
        err_path = self.scratch / "stderr"
        limit = self.deadline - time.monotonic()
        if limit <= 0:
            raise BenchError("run budget exhausted before an invocation could start")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            self._proc = subprocess.Popen(
                argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err, env=self.env, cwd=ROOT
            )
            timer = threading.Timer(limit, self._proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(self._proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        code = self._proc.returncode = os.waitstatus_to_exitcode(status)
        self._proc = None
        if code != 0:
            tail = err_path.read_text(errors="replace")[-2000:]
            print(f"[child exit {code}] {' '.join(argv[1:4])} ...\n{tail}", file=sys.stderr)
        cpu = usage.ru_utime + usage.ru_stime
        return Invocation(wall, cpu, usage.ru_maxrss / 1024, code, out_path.read_text(errors="replace"))

    def stop(self) -> None:
        if self._proc is not None and self._proc.returncode is None:
            self._proc.kill()
            self._proc.wait()

    def cli(self, args: list[str]) -> list[str]:
        # what the doubled-odd console script does
        return [sys.executable, "-c", "import sys; from doubled_odd.cli import main; sys.exit(main())", *args]

    def traced(self, args: list[str], trace_path: Path) -> list[str]:
        return [sys.executable, str(TRACER), str(trace_path), *args]


def preflight(runner: Runner) -> str:
    """Fail unless the checkout's own package imports; returns its version."""
    if not (SRC / "doubled_odd" / "cli.py").is_file():
        raise BenchError(f"no program source under {SRC}")
    probe = runner.spawn([sys.executable, "-c", "import doubled_odd.cli as c, doubled_odd as d; print(d.__version__); print(c.__file__)"])
    lines = probe.stdout.split()
    if probe.returncode != 0 or len(lines) != 2:
        raise BenchError("doubled_odd.cli does not import from the checkout")
    if Path(lines[1]).resolve() != (SRC / "doubled_odd" / "cli.py").resolve():
        raise BenchError(f"doubled_odd imported from {lines[1]}, not from {SRC}")
    return lines[0]


def workload_args(w: Workload, runner: Runner, cache: Path | None) -> tuple[list[str], Path | None, Path | None]:
    """The invocation's arguments, its cache directory and its export directory."""
    if cache is None and "{cache}" in w.argv:
        cache = runner.fresh_path("cache")
        cache.mkdir()
    export = runner.fresh_path("export") if "{export}" in w.argv else None
    args = [a.replace("{cache}", str(cache)).replace("{export}", str(export)) for a in w.argv]
    return args, cache, export


def check_export(export: Path | None, expected: str | None, tally: Tally, label: str) -> None:
    if export is None:
        return
    tally.attempted += 1
    if not export.is_dir() or tree_digest(export) != expected:
        tally.fail(1, f"{label}: export tree differs from the reference")
    shutil.rmtree(export, ignore_errors=True)


def populate(runner: Runner, reference: list, tally: Tally, trace_path: Path | None = None):
    """The warm-m3 set-up: a cold verify --m 3 run that fills a fresh cache."""
    args, cache, _ = workload_args(WORKLOADS["cold-m3"], runner, None)
    argv = runner.cli(args) if trace_path is None else runner.traced(args, trace_path)
    inv = runner.spawn(argv)
    check_reports(inv, reference, tally, "set-up")
    return cache, inv


def fits(spent: float, cycles: list[float], seconds: int) -> bool:
    """Whether one more cycle of typical length still ends within --seconds."""
    return spent + statistics.median(cycles) <= seconds


def measure(w: Workload, seed: int, seconds: int, scratch: Path, deadline: float) -> tuple[dict, dict]:
    """Untraced run: returns (result, detail).

    Host steal time on a shared machine shifts wall times by tens of percent
    for tens of seconds at a time, so the set-ups are spread evenly through
    the timed invocations instead of preceding them: each run then samples
    the machine over its whole length.  Set-up time does not count against
    --seconds.
    """
    runner = Runner(seed, scratch, deadline)
    try:
        version = preflight(runner)
        ref = load_reference(w.reference)
        tally = Tally()
        n_setups = POPULATE_SETUPS if w.setup == "populate" else IMPORT_SETUPS
        setups: list[float] = []
        cache = None

        def set_up() -> None:
            nonlocal cache
            if w.setup == "populate":
                cache, inv = populate(runner, ref["reports"], tally)
            else:
                inv = runner.spawn([sys.executable, "-c", "import doubled_odd.cli"])
                if inv.returncode != 0:
                    raise BenchError("import of doubled_odd.cli failed")
            setups.append(inv.wall_s)

        timed: list[Invocation] = []
        spent = 0.0
        while True:
            while len(setups) < n_setups and spent >= seconds * len(setups) / n_setups:
                set_up()
            if len(timed) >= MIN_TIMED and not fits(spent, [inv.wall_s for inv in timed], seconds):
                break
            args, _, export = workload_args(w, runner, cache)
            inv = runner.spawn(runner.cli(args))
            label = f"invocation {len(timed) + 1}"
            check_reports(inv, ref["reports"], tally, label)
            check_export(export, ref.get("export_sha256"), tally, label)
            timed.append(inv)
            spent += inv.wall_s
        while len(setups) < n_setups:
            set_up()
    finally:
        runner.stop()

    walls = [inv.wall_s for inv in timed]
    metrics = {
        "wall_s": statistics.median(walls),
        "peak_rss_mb": statistics.median(inv.rss_mb for inv in timed),
        "setup_s": statistics.median(setups),
    }
    detail = {
        "package_version": version,
        "wall_s_samples": walls,
        "wall_s_percentile": highest_percentile(walls),
        "cpu_s_samples": [inv.cpu_s for inv in timed],
        "peak_rss_mb_samples": [inv.rss_mb for inv in timed],
        "setup_s_samples": setups,
    }
    return result(tally, {k: {"value": metrics[k], "unit": u} for k, u in END_TO_END}), detail


def highest_percentile(samples: list[float]) -> dict | None:
    """The highest percentile with at least ten samples beyond it, or None."""
    n = len(samples)
    if n < 20:
        return None
    p = int(100 * (n - 10) / n)
    return {"p": p, "value": statistics.quantiles(samples, n=100)[p - 1]}


def layer_values(traces: list[dict], reports: list[list], source: tuple) -> list:
    """One value per traced invocation for a PER_LAYER source."""
    kind = source[0]
    if kind in ("total", "self", "calls"):
        key = {"total": "total_s", "self": "self_s", "calls": "calls"}[kind]
        return [t["spans"].get(source[1], {}).get(key, 0) for t in traces]
    if kind == "counter":
        return [t["counters"][source[1]] for t in traces]
    if kind == "check":
        return [next((r.get("elapsed_ms", 0) for r in rep if r.get("check") == source[1]), 0) for rep in reports]
    if kind == "import":
        return [t["import_s"] for t in traces]
    if kind == "yield":
        return [
            t["counters"]["closure_dim"] / t["counters"]["closure_products"] if t["counters"]["closure_products"] else 0
            for t in traces
        ]
    raise ValueError(f"unknown per-layer source {source!r}")


def measure_traced(w: Workload, seed: int, seconds: int, scratch: Path, deadline: float) -> tuple[dict, dict]:
    """Traced run: untraced and traced invocations alternate; returns (result, detail)."""
    runner = Runner(seed, scratch, deadline)
    try:
        version = preflight(runner)
        ref = load_reference(w.reference)
        tally = Tally()
        setup_trace = None
        cache = None
        if w.setup == "populate":
            trace_path = scratch / "setup-trace.json"
            cache, _ = populate(runner, ref["reports"], tally, trace_path)
            setup_trace = json.loads(trace_path.read_text())

        untraced: list[float] = []
        traced: list[float] = []
        traces: list[dict] = []
        traced_reports: list[list] = []
        while len(traced) < MIN_TRACED or fits(sum(untraced) + sum(traced), [a + b for a, b in zip(untraced, traced)], seconds):
            args, _, export = workload_args(w, runner, cache)
            inv = runner.spawn(runner.cli(args))
            check_reports(inv, ref["reports"], tally, f"untraced {len(untraced) + 1}")
            check_export(export, ref.get("export_sha256"), tally, f"untraced {len(untraced) + 1}")
            untraced.append(inv.wall_s)

            args, _, export = workload_args(w, runner, cache)
            trace_path = scratch / f"trace{len(traced)}.json"
            inv = runner.spawn(runner.traced(args, trace_path))
            label = f"traced {len(traced) + 1}"
            reports = check_reports(inv, ref["reports"], tally, label)
            check_export(export, ref.get("export_sha256"), tally, label)
            traced.append(inv.wall_s)
            if trace_path.is_file():
                traces.append(json.loads(trace_path.read_text()))
                traced_reports.append(reports or [])
            else:
                tally.problems.append(f"{label}: no trace written")
    finally:
        runner.stop()

    metrics: dict[str, dict] = {}
    for name, (unit, source) in PER_LAYER.items():
        if name == "trace_overhead_s":
            value = statistics.median(traced) - statistics.median(untraced)
        else:
            if setup_trace is not None and name in SETUP_LAYER_METRICS:
                values = layer_values([setup_trace], [[]], source)
            else:
                values = layer_values(traces, traced_reports, source) or [0]
            if name in EXACT_COUNTERS and len(set(values)) != 1:
                tally.problems.append(f"{name} differs between traced invocations: {values}")
            value = statistics.median(values)
        metrics[name] = {"value": value, "unit": unit}
    detail = {
        "package_version": version,
        "untraced_wall_s_samples": untraced,
        "traced_wall_s_samples": traced,
        "spans": {k: v for k, v in traces[-1]["spans"].items() if v["calls"]} if traces else {},
        "counters": traces[-1]["counters"] if traces else {},
    }
    return result(tally, metrics), detail


def result(tally: Tally, metrics: dict) -> dict:
    return {
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
        "problems": tally.problems,
    }


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def print_summary(name: str, res: dict, detail: dict) -> None:
    for metric, entry in res["metrics"].items():
        print(f"{name}  {metric:<42} {entry['value']:.6g} {entry['unit']}")
    if "wall_s_samples" in detail:
        pct = detail["wall_s_percentile"]
        n = len(detail["wall_s_samples"])
        tail = f"p{pct['p']} {pct['value']:.6g} s" if pct else "no percentile above the median has ten samples beyond it"
        print(f"{name}  wall_s samples n={n}; {tail}")
        print(f"{name}  setup_s samples n={len(detail['setup_s_samples'])}")
    ratio = res["failed"] / res["attempted"] if res["attempted"] else 1.0
    print(f"{name}  fail_ratio {ratio:.6g} ratio ({res['failed']} of {res['attempted']} checks)")
    for problem in res["problems"]:
        print(f"{name}  FAILED {problem}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True, help="length of the timed part of the run; at least three invocations are timed regardless")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    deadline = time.monotonic() + RUN_BUDGET_S
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=scratch_root()))
    try:
        measure_fn = measure_traced if args.trace else measure
        res, detail = measure_fn(WORKLOADS[args.workload], args.seed, args.seconds, scratch, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    detail.update(
        workload=args.workload,
        seed=args.seed,
        trace=args.trace,
        nproc=os.cpu_count(),
        python=platform.python_version(),
        git_sha=git_sha(),
    )
    print_summary(args.workload, res, detail)
    print(json.dumps({"detail": detail}))
    res.pop("problems")
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
