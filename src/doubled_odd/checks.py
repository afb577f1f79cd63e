"""Check registry, verification reports, caching and matrix export.

Every headline fact the package can verify is wired to a named check from a
closed registry.  A check produces one VerificationReport: the expected value
with a provenance tag ("paper-formula" for published closed forms,
"derived-oracle" for values recomputed by an independent method in this
package, "finding-only" for computations whose outcome is recorded without
being asserted), the actual computed value, a status of pass/fail/finding and
the elapsed wall time.  Findings never fail a run: they cover the disputed
closure of the mixed-block span and all spectral-decomposition checks at
m = 1, 2, where no claim is made.

Reports are deterministic: rerunning a configuration reproduces the same
JSON up to the elapsed_ms fields.
"""

from __future__ import annotations

import json
import os
import random
import time
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb
from pathlib import Path
from typing import Callable

from . import __version__
from .combinatorics import (
    DistanceRegularityError,
    GroundSet,
    distance_matrices,
    elements_of,
    enumerate_vertices,
    intersection_numbers,
    vertex_count,
)
from .covering import build_psi, verify_intertwining
from .linalg import SpanBasis, SparseExactMatrix, contains, write_coord_text
from .orbits import (
    BlockTag,
    build_centralizer,
    check_subalgebra,
    enumerate_index_set,
    index_set,
    orbit_labels,
    orbit_matrices,
    orbits_by_group_action,
    tuple_bijection,
)
from .terwilliger import (
    block_profile,
    build_terwilliger,
    center_basis as _center_basis,
    dual_idempotents,
    subalgebra_spans,
    terwilliger_generators,
    TerwilligerAlgebra,
    upsilon,
    upsilon_size_formula,
    verify_equality,
    verify_inclusion,
    verify_sandwich_identities,
)

CHECK_IDS: tuple[str, ...] = (
    "vertex-count",
    "distance-regular",
    "index-sets",
    "bijections",
    "orbits-oracle",
    "centralizer-dim",
    "subalgebra-closure",
    "direct-sum",
    "lemma41",
    "terwilliger-dim",
    "inclusion",
    "equality",
    "center-dim",
    "upsilon",
    "block-profile",
    "psi-intertwining",
)

# checks with exhaustive scans are capped at m <= 3; the summand profile is
# only claimed for m >= 3
_MAX_M: dict[str, int] = {
    "distance-regular": 3,
    "orbits-oracle": 3,
    "subalgebra-closure": 3,
}
_MIN_M: dict[str, int] = {"block-profile": 3}

# checks whose outcome is a finding, not an assertion, below m = 3: run()
# records them with provenance "finding-only" and status "finding"
_FINDING_BELOW_3 = {"terwilliger-dim", "inclusion", "equality", "center-dim"}


def applicable(check: str, m: int) -> bool:
    if check not in CHECK_IDS:
        raise ConfigError(f"unknown check {check!r}")
    return _MIN_M.get(check, 1) <= m <= _MAX_M.get(check, 10 ** 9)


class ConfigError(ValueError):
    """Invalid run configuration."""


@dataclass(frozen=True)
class RunConfig:
    """Configuration of one verification run.

    checks=None means every check applicable at m.  m is limited to [1, 4]
    unless allow_m5 opts into the (slow) m = 5 computations.
    """

    m: int
    checks: tuple[str, ...] | None = None
    cache_dir: str | None = None
    export_dir: str | None = None
    allow_m5: bool = False

    def __post_init__(self):
        if not isinstance(self.m, int):
            raise ConfigError(f"m must be an integer, got {self.m!r}")
        top = 5 if self.allow_m5 else 4
        if not 1 <= self.m <= top:
            hint = " (pass allow_m5 to enable m = 5)" if self.m == 5 else ""
            raise ConfigError(f"m={self.m} outside the supported range [1, {top}]{hint}")
        if self.checks is not None:
            for name in self.checks:
                if name not in CHECK_IDS:
                    raise ConfigError(f"unknown check {name!r}")


@dataclass
class VerificationReport:
    check: str
    m: int
    expected: object
    provenance: str
    actual: object
    status: str
    elapsed_ms: int

    def to_dict(self) -> dict:
        return {
            "check": self.check,
            "m": self.m,
            "expected": {"value": self.expected, "provenance": self.provenance},
            "actual": self.actual,
            "status": self.status,
            "elapsed_ms": self.elapsed_ms,
        }


def render_reports(reports: list[VerificationReport]) -> str:
    return json.dumps([r.to_dict() for r in reports], indent=2) + "\n"


# ---------------------------------------------------------------------------
# basis caching


def _basis_path(cache_dir, key: str) -> Path:
    return Path(cache_dir) / f"{key}_v{__version__}.json"


def cache_basis(cache_dir, key: str, basis: SpanBasis) -> Path:
    """Store a span basis on disk, keyed by (key, package version)."""
    path = _basis_path(cache_dir, key)
    path.parent.mkdir(parents=True, exist_ok=True)
    rows = [
        [[c, str(row[c])] for c in sorted(row)]
        for row in basis.rows
    ]
    payload = {
        "format": 1,
        "package_version": __version__,
        "key": key,
        "ambient_dim": basis.ambient_dim,
        "rows": rows,
    }
    # write a sibling temporary file and rename it over the target, so a
    # reader never sees a half-written entry
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(json.dumps(payload))
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    return path


def load_basis(cache_dir, key: str) -> SpanBasis | None:
    """Load a span basis stored by cache_basis; None on miss or any damage."""
    path = _basis_path(cache_dir, key)
    if not path.exists():
        return None
    try:
        payload = json.loads(path.read_text())
        if not isinstance(payload, dict):
            raise ValueError("top level is not an object")
        if payload.get("format") != 1 or payload.get("package_version") != __version__:
            return None
        if payload.get("key") != key:
            return None
        basis = SpanBasis(payload["ambient_dim"])
        for row in payload["rows"]:
            vec = {}
            for c, v in row:
                val = Fraction(v)
                vec[int(c)] = val.numerator if val.denominator == 1 else val
            if not basis.insert(vec):
                raise ValueError("dependent cached row")
        return basis
    except (ValueError, KeyError, TypeError, ZeroDivisionError, OSError) as exc:
        warnings.warn(f"ignoring unreadable basis cache {path}: {exc}")
        return None


# ---------------------------------------------------------------------------
# shared per-run construction state


class CheckContext:
    """Lazily builds and memoizes the per-m objects the checks share."""

    def __init__(self, m: int, cache_dir: str | None = None):
        self.g = GroundSet(m)
        self.cache_dir = cache_dir
        self._memo: dict[str, object] = {}

    def _get(self, name: str, build: Callable[[], object]):
        if name not in self._memo:
            self._memo[name] = build()
        return self._memo[name]

    @property
    def centralizer(self):
        return self._get("centralizer", lambda: build_centralizer(self.g))

    @property
    def terwilliger(self) -> TerwilligerAlgebra:
        def build():
            key = f"m{self.g.m}_terwilliger"
            if self.cache_dir is not None:
                cached = load_basis(self.cache_dir, key)
                if cached is not None:
                    return TerwilligerAlgebra(
                        m=self.g.m,
                        basis=cached,
                        generator_list=terwilliger_generators(self.g),
                        closure=None,
                    )
            t = build_terwilliger(self.g)
            if self.cache_dir is not None:
                cache_basis(self.cache_dir, key, t.basis)
            return t

        return self._get("terwilliger", build)

    @property
    def center(self) -> SpanBasis:
        def build():
            key = f"m{self.g.m}_center"
            if self.cache_dir is not None:
                cached = load_basis(self.cache_dir, key)
                if cached is not None:
                    return cached
            z = _center_basis(self.terwilliger)
            if self.cache_dir is not None:
                cache_basis(self.cache_dir, key, z)
            return z

        return self._get("center", build)


# ---------------------------------------------------------------------------
# the individual checks; each returns (expected, provenance, actual, status)

_RUNNERS: dict[str, Callable[[CheckContext], tuple[object, str, object, str]]] = {}


def _runner(name: str):
    def register(fn):
        _RUNNERS[name] = fn
        return fn

    return register


def _verdict(ok: bool) -> str:
    return "pass" if ok else "fail"


@_runner("vertex-count")
def _check_vertex_count(ctx: CheckContext):
    g = ctx.g
    expected = {"count": vertex_count(g)}
    actual = {"count": len(enumerate_vertices(g))}
    return expected, "paper-formula", actual, _verdict(expected == actual)


@_runner("distance-regular")
def _check_distance_regular(ctx: CheckContext):
    g = ctx.g
    expected = {"consistent": True, "valency": g.m + 1}
    try:
        table = intersection_numbers(g)
        actual = {"consistent": True, "valency": table.valency}
    except DistanceRegularityError as exc:
        actual = {
            "consistent": False,
            "witness": {
                "x": list(elements_of(exc.x)),
                "y": list(elements_of(exc.y)),
                "i": exc.i,
                "j": exc.j,
            },
        }
    return expected, "derived-oracle", actual, _verdict(expected == actual)


@_runner("index-sets")
def _check_index_sets(ctx: CheckContext):
    g = ctx.g
    m = g.m
    card = comb(m + 4, 4)
    blocks = (BlockTag.I, BlockTag.II, BlockTag.III, BlockTag.IV)
    cards = [len(index_set(b, m)) for b in blocks]
    matches = all(index_set(b, m) == enumerate_index_set(g, b) for b in blocks)
    expected = {"cardinalities": [card] * 4, "matches_enumeration": True}
    actual = {"cardinalities": cards, "matches_enumeration": matches}
    return expected, "paper-formula", actual, _verdict(expected == actual)


@_runner("bijections")
def _check_bijections(ctx: CheckContext):
    m = ctx.g.m
    target = index_set(BlockTag.I, m)
    good = []
    for block in (BlockTag.II, BlockTag.III, BlockTag.IV):
        source = index_set(block, m)
        image = {tuple_bijection(block, tup, m) for tup in source}
        if len(image) == len(source) and image == target:
            good.append(block.value)
    expected = {"bijective_onto_block_I": ["II", "III", "IV"]}
    actual = {"bijective_onto_block_I": good}
    return expected, "paper-formula", actual, _verdict(expected == actual)


@_runner("orbits-oracle")
def _check_orbits_oracle(ctx: CheckContext):
    g = ctx.g
    oracle = {frozenset(part) for part in orbits_by_group_action(g)}
    closed_form = {
        frozenset((r, c) for r, c, _ in mat.entries())
        for mat in orbit_matrices(g).values()
    }
    expected = {"orbit_count": 4 * comb(g.m + 4, 4), "partitions_match": True}
    actual = {"orbit_count": len(oracle), "partitions_match": oracle == closed_form}
    return expected, "paper-formula", actual, _verdict(expected == actual)


@_runner("centralizer-dim")
def _check_centralizer_dim(ctx: CheckContext):
    g = ctx.g
    cent = ctx.centralizer
    mats = cent.matrices
    d = len(mats)
    if g.m <= 2:
        pairs = [(a, b) for a in range(d) for b in range(d)]
    else:
        rng = random.Random(20260 + g.m)
        pairs = [(rng.randrange(d), rng.randrange(d)) for _ in range(500)]
    closure_ok = all(contains(cent.span, mats[a] @ mats[b]) for a, b in pairs)
    expected = {"dim": 4 * comb(g.m + 4, 4), "closure_ok": True}
    actual = {"dim": cent.dimension, "closure_ok": closure_ok, "pairs_checked": len(pairs)}
    ok = actual["dim"] == expected["dim"] and closure_ok
    return expected, "paper-formula", actual, _verdict(ok)


@_runner("subalgebra-closure")
def _check_subalgebra_closure(ctx: CheckContext):
    g = ctx.g
    labels = orbit_labels(g)
    family = {
        "I": [lab for lab in labels if lab.block is BlockTag.I],
        "II+III": [lab for lab in labels if lab.block in (BlockTag.II, BlockTag.III)],
        "IV": [lab for lab in labels if lab.block is BlockTag.IV],
    }
    reports = {name: check_subalgebra(subset, g) for name, subset in family.items()}
    mixed = reports["II+III"]
    actual = {
        "I_closed": reports["I"].closed,
        "IV_closed": reports["IV"].closed,
        "mixed_closed": mixed.closed,
        "mixed_first_violation": None,
        "mixed_violation_block": None,
    }
    if mixed.first_violation is not None:
        la, lb = mixed.first_violation
        actual["mixed_first_violation"] = f"{la.text()} * {lb.text()}"
        actual["mixed_violation_block"] = mixed.violation_block.value
    expected = {
        "I_closed": True,
        "IV_closed": True,
        "mixed_closed": "recorded as finding",
    }
    if not (reports["I"].closed and reports["IV"].closed):
        return expected, "paper-formula", actual, "fail"
    return expected, "paper-formula", actual, "finding"


@_runner("direct-sum")
def _check_direct_sum(ctx: CheckContext):
    cent = ctx.centralizer
    spans = subalgebra_spans(cent)
    names = ["I", "II+III", "IV"]
    dims = [spans[n].dimension for n in names]
    inter = []
    for a in range(3):
        for b in range(a + 1, 3):
            joined = spans[names[a]].copy()
            for row in spans[names[b]].rows:
                joined.insert(row)
            inter.append(dims[a] + dims[b] - joined.dimension)
    expected = {"total": 4 * comb(ctx.g.m + 4, 4), "pairwise_intersections": [0, 0, 0]}
    actual = {
        "dims": dims,
        "total": sum(dims),
        "centralizer_dim": cent.dimension,
        "pairwise_intersections": inter,
    }
    ok = (
        actual["total"] == expected["total"]
        and actual["total"] == cent.dimension
        and inter == [0, 0, 0]
    )
    return expected, "paper-formula", actual, _verdict(ok)


@_runner("lemma41")
def _check_lemma41(ctx: CheckContext):
    results = verify_sandwich_identities(ctx.g)
    failed = [r.name for r in results if not r.ok]
    expected = {"all_hold": True}
    actual = {"checked": len(results), "all_hold": not failed, "failed": failed}
    return expected, "paper-formula", actual, _verdict(not failed)


@_runner("terwilliger-dim")
def _check_terwilliger_dim(ctx: CheckContext):
    t = ctx.terwilliger
    expected = {"dim": 4 * comb(ctx.g.m + 4, 4)}
    actual = {"dim": t.dimension}
    return expected, "paper-formula", actual, _verdict(expected == actual)


@_runner("inclusion")
def _check_inclusion(ctx: CheckContext):
    res = verify_inclusion(ctx.terwilliger, ctx.centralizer)
    expected = {"all_rows_in_centralizer": True}
    actual = {"all_rows_in_centralizer": res.ok}
    if not res.ok:
        actual["first_failed_row"] = res.failed_row
    return expected, "paper-formula", actual, _verdict(res.ok)


@_runner("equality")
def _check_equality(ctx: CheckContext):
    res = verify_equality(ctx.terwilliger, ctx.centralizer)
    expected = {"dims_equal": True, "orbit_matrices_in_T": True, "identical_rref": True}
    actual = {
        "dims_equal": res.dims_equal,
        "orbit_matrices_in_T": res.orbit_matrices_in_t,
        "identical_rref": res.identical_rref,
    }
    return expected, "paper-formula", actual, _verdict(res.ok)


@_runner("center-dim")
def _check_center_dim(ctx: CheckContext):
    m = ctx.g.m
    z = ctx.center.dimension
    u = len(upsilon(m))
    expected = {"dim": upsilon_size_formula(m), "upsilon_size": upsilon_size_formula(m)}
    actual = {"dim": z, "upsilon_size": u}
    return expected, "paper-formula", actual, _verdict(expected == actual)


@_runner("upsilon")
def _check_upsilon(ctx: CheckContext):
    m = ctx.g.m
    members = upsilon(m)
    in_range = all(0 <= d <= m and 0 <= mu <= m - d for mu, d in members)
    expected = {"size": upsilon_size_formula(m), "members_in_range": True}
    actual = {"size": len(members), "members_in_range": in_range}
    return expected, "paper-formula", actual, _verdict(expected == actual)


@_runner("block-profile")
def _check_block_profile(ctx: CheckContext):
    m = ctx.g.m
    profile = block_profile(m)
    t_dim = ctx.terwilliger.dimension
    z_dim = ctx.center.dimension
    expected = {
        "dimension_total": 4 * comb(m + 4, 4),
        "summand_count": upsilon_size_formula(m),
    }
    actual = {
        "counts": list(profile.counts),
        "sides": list(profile.sides),
        "dimension_total": profile.dimension_total,
        "summand_count": profile.summand_count,
        "dim_T": t_dim,
        "center_dim": z_dim,
    }
    ok = (
        profile.dimension_total == t_dim
        and profile.summand_count == z_dim
        and profile.dimension_total == expected["dimension_total"]
        and profile.summand_count == expected["summand_count"]
    )
    return expected, "paper-formula", actual, _verdict(ok)


@_runner("psi-intertwining")
def _check_psi(ctx: CheckContext):
    results = verify_intertwining(ctx.g)
    failed = [r.name for r in results if not r.ok]
    expected = {"all_hold": True}
    actual = {"checked": len(results), "all_hold": not failed, "failed": failed}
    return expected, "derived-oracle", actual, _verdict(not failed)


# ---------------------------------------------------------------------------
# orchestration


def run(cfg: RunConfig, progress: Callable[[str], None] | None = None) -> list[VerificationReport]:
    """Execute the configured checks in registry order and return reports.

    Explicitly requested checks that are not applicable at cfg.m raise
    ConfigError; under the default selection they are simply skipped.
    """
    if cfg.checks is not None:
        for name in cfg.checks:
            if not applicable(name, cfg.m):
                raise ConfigError(f"check {name!r} is not applicable at m={cfg.m}")
        selected = set(cfg.checks)
    else:
        selected = {name for name in CHECK_IDS if applicable(name, cfg.m)}

    ctx = CheckContext(cfg.m, cfg.cache_dir)
    reports: list[VerificationReport] = []
    for name in CHECK_IDS:
        if name not in selected:
            continue
        start = time.perf_counter()
        expected, provenance, actual, status = _RUNNERS[name](ctx)
        if cfg.m < 3 and name in _FINDING_BELOW_3:
            provenance, status = "finding-only", "finding"
        elapsed_ms = int((time.perf_counter() - start) * 1000)
        reports.append(
            VerificationReport(
                check=name,
                m=cfg.m,
                expected=expected,
                provenance=provenance,
                actual=actual,
                status=status,
                elapsed_ms=elapsed_ms,
            )
        )
        if progress is not None:
            progress(f"{name} (m={cfg.m}): {status} [{elapsed_ms} ms]")

    if cfg.export_dir is not None:
        export_matrices(cfg.m, cfg.export_dir, ctx=ctx)
    return reports


def export_matrices(m: int, export_dir, ctx: CheckContext | None = None) -> list[Path]:
    """Write every named matrix of the construction to coordinate text files.

    Emits the distance matrices, the dual idempotents, all orbit matrices,
    the covering matrix psi, and the reduced bases of the centralizer and
    Terwilliger algebras (one file each, basis rows as matrix rows).
    """
    if ctx is None:
        ctx = CheckContext(m)
    g = ctx.g
    out_dir = Path(export_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise OSError(f"cannot create export directory {out_dir}: {exc}") from exc

    written: list[Path] = []

    def emit(name: str, matrix: SparseExactMatrix) -> None:
        path = out_dir / name
        write_coord_text(matrix, path)
        written.append(path)

    for i, mat in enumerate(distance_matrices(g)):
        emit(f"m{m}_A{i}.mtx", mat)
    for i, mat in enumerate(dual_idempotents(g)):
        emit(f"m{m}_Estar{i}.mtx", mat)
    for lab, mat in sorted(orbit_matrices(g).items(), key=lambda kv: kv[0].text()):
        i, j, t, p = lab.tup
        emit(f"m{m}_orbit_{lab.block.value}_{i},{j},{t},{p}.mtx", mat)
    emit(f"m{m}_psi.mtx", build_psi(g))

    def basis_matrix(basis: SpanBasis) -> SparseExactMatrix:
        rows = {idx: dict(row) for idx, row in enumerate(basis.rows)}
        return SparseExactMatrix(basis.dimension, basis.ambient_dim, rows)

    emit(f"m{m}_basis_centralizer.mtx", basis_matrix(ctx.centralizer.span))
    emit(f"m{m}_basis_terwilliger.mtx", basis_matrix(ctx.terwilliger.basis))
    return written


def headline_dimensions(m: int, cache_dir: str | None = None) -> dict[str, int]:
    """|X|, dim of the centralizer algebra, dim T and dim Z(T) at one m."""
    ctx = CheckContext(m, cache_dir)
    return {
        "vertices": vertex_count(ctx.g),
        "centralizer_dim": ctx.centralizer.dimension,
        "terwilliger_dim": ctx.terwilliger.dimension,
        "center_dim": ctx.center.dimension,
    }
