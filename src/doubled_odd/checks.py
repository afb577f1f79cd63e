"""Check registry, verification reports and matrix export.

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

The centralizer algebra, T and Z(T) are kept in orbit coordinates Q^d,
d = 4 C(m+4, 4), one coordinate per orbit matrix: the checks compare them
there, T is closed and Z(T) solved anew on every run (nothing is read back
from disk, since certifying a stored T would take the same generator
products as closing it), and export_matrices alone writes the centralizer
algebra and T out as vectorized n x n matrices, from the orbit of every
vertex pair, read once through the orbit index (orbits.OrbitCoordinates).
"""

from __future__ import annotations

import json
import os
import random
import time
from collections.abc import Iterable
from functools import cached_property
from itertools import chain
from math import comb
from pathlib import Path
from typing import Callable, NamedTuple

from .combinatorics import (
    DistanceRegularityError,
    elements_of,
    enumerate_vertices,
    intersection_numbers,
    vertex_count,
)
from .covering import _fold_image, verify_intertwining
from .linalg import NotClosedError, SpanBasis
from .orbits import (
    BLOCK_FAMILIES,
    BlockTag,
    _check_group_orbits,
    _check_labels_met,
    _sphere_row_keys,
    build_centralizer,
    check_subalgebra,
    index_set,
    orbits_by_group_action,
    constant_on_orbits,
    tuple_bijection,
)
from .terwilliger import (
    block_profile,
    build_terwilliger,
    center_basis as _center_basis,
    TerwilligerAlgebra,
    upsilon,
    upsilon_size_formula,
    verify_equality,
    verify_sandwich_identities,
)

def applicable(check: str, m: int) -> bool:
    """Whether check runs at m: its @_runner declares min_m <= m <= max_m."""
    if check not in _RUNNERS:
        raise ConfigError(f"unknown check {check!r}")
    fn = _RUNNERS[check]
    return fn.min_m <= m and (fn.max_m is None or m <= fn.max_m)


class ConfigError(ValueError):
    """Invalid run configuration."""


# the m a run accepts, which the command line's --m help reads too
SUPPORTED_M = range(1, 6)


class RunConfig:
    """Configuration of one verification run.

    checks=None means every check applicable at m; an explicit check that is
    unknown or not applicable at m, an empty selection or a str, and an
    export_dir "" or of neither str nor os.PathLike raise ConfigError; an
    explicit selection is held as a tuple.  m is limited to SUPPORTED_M,
    [1, 5]; every applicable check also passes at m = 6, 7 and 8 (n = 3,432
    to 48,620), so that range is the only limit there.
    What still grows with the n^2 vertex pairs is the orbit sweep of the
    stabilizer generators of orbits-oracle (capped at m <= 4) and the
    export, which reads the orbit of every pair once, row by row, for its
    n x n files; every other orbit lookup reads the 2m+2 sphere rows of the
    orbit index, single rows of pairs, or the m+1 neighbours of one pair
    per orbit.

    An immutable value: equal only to a RunConfig with equal fields,
    hashed like the tuple of its fields and shown as
    RunConfig(m=..., checks=..., export_dir=...).
    """

    __slots__ = ("m", "checks", "export_dir")

    def __init__(
        self,
        m: int,
        checks: tuple[str, ...] | None = None,
        export_dir: str | None = None,
    ):
        # bool is an int subclass, but True is not a size
        if type(m) is bool or not isinstance(m, int):
            raise ConfigError(f"m must be an integer, got {m!r}")
        if m not in SUPPORTED_M:
            raise ConfigError(
                f"m={m} outside the supported range [{SUPPORTED_M[0]}, {SUPPORTED_M[-1]}]"
            )
        if export_dir is not None and not isinstance(export_dir, (str, os.PathLike)):
            raise ConfigError(f"export_dir must be a path, got {export_dir!r}")
        if export_dir == "":
            raise ConfigError("empty --export-dir path")  # Path("") is the working directory
        if isinstance(checks, str):
            raise ConfigError(f"checks must be a collection of check names, not the string {checks!r}")
        if checks is not None:
            checks = tuple(checks)
            if not checks:
                raise ConfigError("empty --checks list")
        for name in checks or ():
            # applicable raises ConfigError for an unknown check
            if not applicable(name, m):
                raise ConfigError(f"check {name!r} is not applicable at m={m}")
        for name, value in zip(self.__slots__, (m, checks, export_dir)):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return self.m, self.checks, self.export_dir

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        return self._values() == other._values() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        return f"RunConfig(m={self.m!r}, checks={self.checks!r}, export_dir={self.export_dir!r})"


class VerificationReport(NamedTuple):
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
# shared per-run construction state


class CheckContext:
    """Lazily builds and memoizes the objects one run's checks share at its
    m: the orbit index (centralizer), passed to every reader, T and Z(T)."""

    def __init__(self, m: int):
        self.m = m

    @cached_property
    def centralizer(self):
        return build_centralizer(self.m)

    @cached_property
    def terwilliger(self) -> TerwilligerAlgebra:
        return build_terwilliger(self.centralizer)

    @cached_property
    def center(self) -> SpanBasis:
        return _center_basis(self.terwilliger)


# ---------------------------------------------------------------------------
# the individual checks; each returns (expected, provenance, actual, status)
# and is registered in run order by its @_runner line, the one declaration
# of the check

_RUNNERS: dict[str, Callable[[CheckContext], tuple[object, str, object, str]]] = {}


def _runner(name: str, *, min_m: int = 1, max_m: int | None = None, finding_below_3: bool = False):
    """Register check name, applicable at min_m <= m <= max_m (None: no
    cap).  A finding_below_3 check is recorded by run() with provenance
    "finding-only" and status "finding" at m = 1, 2, where no claim is made."""

    def register(fn):
        fn.min_m, fn.max_m, fn.finding_below_3 = min_m, max_m, finding_below_3
        _RUNNERS[name] = fn
        return fn

    return register


def _verdict(ok: bool) -> str:
    return "pass" if ok else "fail"


def _holds(certificate, *args) -> bool:
    """Whether certificate(*args) accepts: False on NotClosedError, the
    error of every certificate fault.  Any other exception is a bug, not a
    failed check, and passes through."""
    try:
        certificate(*args)
    except NotClosedError:
        return False
    return True


def _paper_dim(m: int) -> int:
    """The paper's dimension of the centralizer algebra, and of T for m >= 3:
    4 C(m+4, 4), C(m+4, 4) orbits in each of its four blocks."""
    return 4 * comb(m + 4, 4)


@_runner("vertex-count")
def _check_vertex_count(ctx: CheckContext):
    expected = {"count": vertex_count(ctx.m)}
    actual = {"count": len(enumerate_vertices(ctx.m))}
    return expected, "paper-formula", actual, _verdict(expected == actual)


@_runner("distance-regular")
def _check_distance_regular(ctx: CheckContext):
    expected = {"consistent": True, "valency": ctx.m + 1}
    try:
        table = intersection_numbers(ctx.centralizer)
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
    m = ctx.m
    card = _paper_dim(m) // 4
    blocks = (BlockTag.I, BlockTag.II, BlockTag.III, BlockTag.IV)
    cards = [len(index_set(b, m)) for b in blocks]
    # the orbit index's certificate on the label keys met on the 2m+2 sphere
    # rows, with no index built
    matches = _holds(_check_labels_met, m, chain.from_iterable(_sphere_row_keys(m)))
    expected = {"cardinalities": [card] * 4, "matches_enumeration": True}
    actual = {"cardinalities": cards, "matches_enumeration": matches}
    return expected, "paper-formula", actual, _verdict(expected == actual)


@_runner("bijections")
def _check_bijections(ctx: CheckContext):
    m = ctx.m
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


# capped because its orbit sweep runs over all n^2 vertex pairs
@_runner("orbits-oracle", max_m=4)
def _check_orbits_oracle(ctx: CheckContext):
    # the orbit sweep of the stabilizer generators on all n^2 vertex pairs
    # against the pairs' label keys, with no orbit index: a route to the
    # orbits independent of the certificate the index runs as it is built
    least = orbits_by_group_action(ctx.m)
    matches = _holds(_check_group_orbits, ctx.m, least)
    count = len(set(least))
    expected = {"orbit_count": _paper_dim(ctx.m), "partitions_match": True}
    actual = {"orbit_count": count, "partitions_match": matches}
    return expected, "paper-formula", actual, _verdict(expected == actual)


@_runner("centralizer-dim")
def _check_centralizer_dim(ctx: CheckContext):
    m = ctx.m
    d = ctx.centralizer.ambient_dim
    if m <= 2:
        pairs = [(a, b) for a in range(d) for b in range(d)]
    else:
        rng = random.Random(20260 + m)
        pairs = [(rng.randrange(d), rng.randrange(d)) for _ in range(500)]
    # each product O_a O_b, tested on one row of its row sphere
    closure_ok = all(constant_on_orbits(ctx.centralizer, pairs))
    expected = {"dim": _paper_dim(m), "closure_ok": True}
    actual = {"dim": d, "closure_ok": closure_ok, "pairs_checked": len(pairs)}
    ok = actual["dim"] == expected["dim"] and closure_ok
    return expected, "paper-formula", actual, _verdict(ok)


@_runner("subalgebra-closure")
def _check_subalgebra_closure(ctx: CheckContext):
    escapes = {name: check_subalgebra(blocks, ctx.centralizer) for name, blocks in BLOCK_FAMILIES.items()}
    mixed = escapes["II+III"]
    actual = {
        "I_closed": escapes["I"] is None,
        "IV_closed": escapes["IV"] is None,
        "mixed_closed": mixed is None,
        "mixed_first_violation": None if mixed is None else f"{mixed[0].text()} * {mixed[1].text()}",
        "mixed_violation_block": None if mixed is None else mixed[2].value,
    }
    expected = {
        "I_closed": True,
        "IV_closed": True,
        "mixed_closed": "recorded as finding",
    }
    if not (actual["I_closed"] and actual["IV_closed"]):
        return expected, "paper-formula", actual, "fail"
    return expected, "paper-formula", actual, "finding"


def _family_ids(labels) -> dict[str, set[int]]:
    """The ids of the orbits of each block family (BLOCK_FAMILIES), orbit a
    having label labels[a]."""
    return {
        name: {a for a, lab in enumerate(labels) if lab.block in blocks}
        for name, blocks in BLOCK_FAMILIES.items()
    }


@_runner("direct-sum")
def _check_direct_sum(ctx: CheckContext):
    # in Q^d each family's span is the coordinate subspace of its orbit ids,
    # so its dimension is their number and two spans meet in their common ids
    cent = ctx.centralizer
    ids = _family_ids(cent.labels)
    names = list(BLOCK_FAMILIES)
    dims = [len(ids[n]) for n in names]
    inter = [len(ids[names[a]] & ids[names[b]]) for a in range(3) for b in range(a + 1, 3)]
    expected = {"total": _paper_dim(ctx.m), "pairwise_intersections": [0, 0, 0]}
    actual = {
        "dims": dims,
        "total": sum(dims),
        "centralizer_dim": cent.ambient_dim,
        "pairwise_intersections": inter,
    }
    ok = (
        actual["total"] == expected["total"]
        and actual["total"] == cent.ambient_dim
        and inter == [0, 0, 0]
    )
    return expected, "paper-formula", actual, _verdict(ok)


def _all_hold(results: dict[str, bool], provenance: str):
    """The report of named identity verdicts, name -> bool, failures in order."""
    failed = [name for name, ok in results.items() if not ok]
    expected = {"all_hold": True}
    actual = {"checked": len(results), "all_hold": not failed, "failed": failed}
    return expected, provenance, actual, _verdict(not failed)


@_runner("lemma41")
def _check_lemma41(ctx: CheckContext):
    return _all_hold(verify_sandwich_identities(ctx.centralizer), "paper-formula")


@_runner("terwilliger-dim", finding_below_3=True)
def _check_terwilliger_dim(ctx: CheckContext):
    t = ctx.terwilliger
    expected = {"dim": _paper_dim(ctx.m)}
    actual = {"dim": t.dimension}
    return expected, "paper-formula", actual, _verdict(expected == actual)


@_runner("inclusion", finding_below_3=True)
def _check_inclusion(ctx: CheckContext):
    # T is closed from orbit matrices under A_1's push tables, which map each
    # orbit matrix to a combination of orbit matrices, so T's rows are vectors
    # of its scheme's d coordinates; a basis in any other ambient fails at row 0
    t = ctx.terwilliger
    ok = t.basis.ambient_dim == t.scheme.ambient_dim
    actual = {"all_rows_in_centralizer": ok}
    if not ok:
        actual["first_failed_row"] = 0
    return {"all_rows_in_centralizer": True}, "paper-formula", actual, _verdict(ok)


@_runner("equality", finding_below_3=True)
def _check_equality(ctx: CheckContext):
    actual = verify_equality(ctx.terwilliger)
    return dict.fromkeys(actual, True), "paper-formula", actual, _verdict(all(actual.values()))


@_runner("center-dim", finding_below_3=True)
def _check_center_dim(ctx: CheckContext):
    m = ctx.m
    z = ctx.center.dimension
    u = len(upsilon(m))
    expected = {"dim": upsilon_size_formula(m), "upsilon_size": upsilon_size_formula(m)}
    actual = {"dim": z, "upsilon_size": u}
    return expected, "paper-formula", actual, _verdict(expected == actual)


@_runner("upsilon")
def _check_upsilon(ctx: CheckContext):
    m = ctx.m
    members = upsilon(m)
    in_range = all(0 <= d <= m and 0 <= mu <= m - d for mu, d in members)
    expected = {"size": upsilon_size_formula(m), "members_in_range": True}
    actual = {"size": len(members), "members_in_range": in_range}
    return expected, "paper-formula", actual, _verdict(expected == actual)


# the summand profile is only claimed for m >= 3
@_runner("block-profile", min_m=3)
def _check_block_profile(ctx: CheckContext):
    m = ctx.m
    profile = block_profile(m)
    t_dim = ctx.terwilliger.dimension
    z_dim = ctx.center.dimension
    expected = {
        "dimension_total": _paper_dim(m),
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
    return _all_hold(verify_intertwining(ctx.m), "derived-oracle")


CHECK_IDS: tuple[str, ...] = tuple(_RUNNERS)


# ---------------------------------------------------------------------------
# orchestration


def run(cfg: RunConfig, progress: Callable[[str], None] | None = None) -> list[VerificationReport]:
    """Execute the configured checks in registry order and return reports.

    Checks not applicable at cfg.m are skipped under the default selection;
    RunConfig rejects them when they are requested explicitly.  An unusable
    export directory fails at once: it is made before the first check.
    """
    if cfg.export_dir is not None:
        _make_export_dir(cfg.export_dir)
    if cfg.checks is not None:
        selected = set(cfg.checks)
    else:
        selected = {name for name in CHECK_IDS if applicable(name, cfg.m)}

    ctx = CheckContext(cfg.m)
    reports: list[VerificationReport] = []
    for name, fn in _RUNNERS.items():
        if name not in selected:
            continue
        start = time.perf_counter()
        expected, provenance, actual, status = fn(ctx)
        if cfg.m < 3 and fn.finding_below_3:
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
        export_matrices(ctx, cfg.export_dir)
    return reports


def _make_export_dir(export_dir) -> Path:
    """Create the export directory, or fail with the one message of an
    unusable --export-dir: "" (Path("") is the working directory), a path
    at or under a regular file, or one that cannot be made."""
    if export_dir == "":
        raise ConfigError("empty --export-dir path")
    out_dir = Path(export_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except FileExistsError:
        raise OSError(f"cannot use --export-dir {export_dir}: it is not a directory") from None
    except OSError as exc:
        raise OSError(f"cannot use --export-dir {export_dir}: {exc.strerror}") from exc
    return out_dir


def write_coord_entries(nrows: int, ncols: int, entries: Iterable[tuple[int, int, object]], path: Path) -> None:
    """Write an nrows x ncols matrix given by its entries (row, col, value),
    nonzero and sorted by (row, col), as coordinate text: a header line
    "nrows ncols nnz", then one "row col value" line per entry, each value
    an exact integer or p/q rational."""
    lines = [f"{r} {c} {v}" for r, c, v in entries]
    text = "\n".join([f"{nrows} {ncols} {len(lines)}", *lines, ""])
    try:
        path.write_text(text)
    except OSError as exc:
        raise OSError(f"cannot write matrix to {path}: {exc}") from exc


def export_matrices(ctx: CheckContext, export_dir) -> list[Path]:
    """Write every named matrix of the construction to coordinate text files.

    Emits the distance matrices, the dual idempotents, all orbit matrices,
    the covering matrix psi, and the reduced bases of the centralizer and
    Terwilliger algebras (one file each, basis rows as vectorized n x n
    matrices), each through write_coord_entries, from the orbit index and
    T of ctx at its m, into export_dir, made first.  One pass over the n
    rows of vertex pairs (OrbitCoordinates.orbits) gives each orbit its pair
    positions y n + z, ascending, and every file but psi, read off the fold
    map, and the E*_i, each the diagonal of its sphere, is a 0/1 or
    rational combination of those positions: A_i is the union of the
    orbits at distance i (LabelScheme.distance_classes), and the rows of
    both bases, in Q^d with the orbits ordered by first pair, are spread
    over their orbits' positions.  In that order a reduced row spreads to a reduced n
    x n row, so both bases, T's reduced anew, are written in reduced row
    echelon form.  This is the only place the n x n form of the two
    algebras is made.
    """
    out_dir = _make_export_dir(export_dir)
    m = ctx.m

    index = ctx.centralizer
    n, labels = index.n, index.labels
    positions: list[list[int]] = [[] for _ in labels]
    append = [pos.append for pos in positions]
    for y in range(n):
        for idx, a in enumerate(index.orbits(y, range(n)), y * n):
            append[a](idx)

    written: list[Path] = []

    def emit(name: str, nrows: int, ncols: int, entries) -> None:
        path = out_dir / f"m{m}_{name}.mtx"
        write_coord_entries(nrows, ncols, entries, path)
        written.append(path)

    def pairs(ascending):
        # the entries of the 0/1 n x n matrix with these pair positions
        return ((idx // n, idx % n, 1) for idx in ascending)

    for i, orbits in enumerate(index.distance_classes):
        emit(f"A{i}", n, n, pairs(sorted(chain.from_iterable(positions[a] for a in orbits))))
    for i, sphere in enumerate(index.spheres):
        emit(f"Estar{i}", n, n, ((y, y, 1) for y in sphere))
    for a in sorted(range(len(labels)), key=lambda a: labels[a].text()):
        i, j, t, p = labels[a].tup
        emit(f"orbit_{labels[a].block.value}_{i},{j},{t},{p}", n, n, pairs(positions[a]))
    emit("psi", comb(2 * m + 1, m), n, sorted((u, z, 1) for z, u in enumerate(_fold_image(m))))

    # the orbits by first pair, each its least position, and T's rows reduced in that order
    by_first_pair = sorted(range(len(labels)), key=index.first_pair)
    emit("basis_centralizer", len(labels), n * n, ((r, idx, 1) for r, a in enumerate(by_first_pair) for idx in positions[a]))
    rank = {a: r for r, a in enumerate(by_first_pair)}
    t_basis = SpanBasis(len(labels))
    for row in ctx.terwilliger.basis.rows:
        t_basis.insert({rank[a]: v for a, v in row.items()})
    spread = (
        (r, idx, v)
        for r, row in enumerate(t_basis.rows)
        for idx, v in sorted((idx, v) for c, v in row.items() for idx in positions[by_first_pair[c]])
    )
    emit("basis_terwilliger", t_basis.dimension, n * n, spread)
    return written


def headline_dimensions(m: int) -> dict[str, int]:
    """|X|, dim of the centralizer algebra, dim T and dim Z(T) at one m."""
    ctx = CheckContext(m)
    return {
        "vertices": vertex_count(m),
        "centralizer_dim": ctx.centralizer.ambient_dim,
        "terwilliger_dim": ctx.terwilliger.dimension,
        "center_dim": ctx.center.dimension,
    }
