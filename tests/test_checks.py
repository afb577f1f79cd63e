"""Report registry, run configuration, caching, export and the CLI."""

import json
from fractions import Fraction

import pytest

from doubled_odd import __version__
from doubled_odd.checks import (
    CHECK_IDS,
    CheckContext,
    ConfigError,
    RunConfig,
    applicable,
    cache_basis,
    export_matrices,
    headline_dimensions,
    load_basis,
    render_reports,
    run,
)
from doubled_odd.cli import main
from doubled_odd.linalg import SpanBasis, read_coord_text, write_coord_text
from doubled_odd.orbits import BlockTag, OrbitLabel, orbit_matrix
from doubled_odd.combinatorics import GroundSet

_ALLOWED_PROVENANCE = {"paper-formula", "derived-oracle", "finding-only"}


def test_registry_is_closed_and_ordered():
    assert len(CHECK_IDS) == 16
    assert len(set(CHECK_IDS)) == 16
    assert CHECK_IDS[0] == "vertex-count"
    assert CHECK_IDS[-1] == "psi-intertwining"


def test_applicability_table():
    assert not applicable("distance-regular", 4)
    assert applicable("distance-regular", 3)
    assert not applicable("orbits-oracle", 4)
    assert not applicable("subalgebra-closure", 4)
    assert not applicable("block-profile", 2)
    assert applicable("block-profile", 3)
    assert applicable("vertex-count", 5)
    assert sum(applicable(c, 3) for c in CHECK_IDS) == 16
    assert sum(applicable(c, 1) for c in CHECK_IDS) == 15
    assert sum(applicable(c, 4) for c in CHECK_IDS) == 13
    with pytest.raises(ConfigError):
        applicable("no-such-check", 3)


def test_run_config_validation():
    with pytest.raises(ConfigError):
        RunConfig(m=0)
    with pytest.raises(ConfigError):
        RunConfig(m=6, allow_m5=True)
    with pytest.raises(ConfigError):
        RunConfig(m=5)
    RunConfig(m=5, allow_m5=True)
    with pytest.raises(ConfigError):
        RunConfig(m=2, checks=("vertex-count", "bogus"))
    with pytest.raises(ConfigError):
        RunConfig(m="2")


def test_run_rejects_explicit_inapplicable_check():
    with pytest.raises(ConfigError):
        run(RunConfig(m=4, checks=("distance-regular",)))


def test_report_schema_and_statuses():
    reports = run(RunConfig(m=1))
    assert [r.check for r in reports] == [c for c in CHECK_IDS if applicable(c, 1)]
    payload = json.loads(render_reports(reports))
    assert len(payload) == 15
    for entry in payload:
        assert set(entry) == {"check", "m", "expected", "actual", "status", "elapsed_ms"}
        assert set(entry["expected"]) == {"value", "provenance"}
        assert entry["expected"]["provenance"] in _ALLOWED_PROVENANCE
        assert entry["status"] in {"pass", "fail", "finding"}
        assert entry["m"] == 1
        assert isinstance(entry["elapsed_ms"], int)
    by_check = {entry["check"]: entry for entry in payload}
    assert by_check["subalgebra-closure"]["status"] == "finding"
    for name in ("terwilliger-dim", "inclusion", "equality", "center-dim"):
        assert by_check[name]["status"] == "finding"
        assert by_check[name]["expected"]["provenance"] == "finding-only"
    assert by_check["vertex-count"]["status"] == "pass"
    assert not any(entry["status"] == "fail" for entry in payload)


def test_small_m_findings_record_expected_values():
    reports = {r.check: r for r in run(RunConfig(m=2, checks=("terwilliger-dim", "center-dim")))}
    assert reports["terwilliger-dim"].actual == {"dim": 60}
    assert reports["center-dim"].actual == {"dim": 4, "upsilon_size": 4}


def _normalized(reports) -> str:
    payload = [r.to_dict() for r in reports]
    for entry in payload:
        entry["elapsed_ms"] = 0
    return json.dumps(payload)


def test_runs_are_deterministic():
    cfg = RunConfig(m=1)
    assert _normalized(run(cfg)) == _normalized(run(cfg))


def test_progress_callback_sees_every_check():
    lines = []
    run(RunConfig(m=1, checks=("vertex-count", "upsilon")), progress=lines.append)
    assert len(lines) == 2
    assert lines[0].startswith("vertex-count (m=1): pass")


def test_basis_cache_round_trip(tmp_path):
    basis = SpanBasis(4)
    basis.insert({0: 1, 2: 3})
    basis.insert({1: 2, 3: -5})
    cache_basis(tmp_path, "unit_test_basis", basis)
    loaded = load_basis(tmp_path, "unit_test_basis")
    assert loaded is not None
    assert loaded == basis


def test_basis_cache_write_is_atomic(tmp_path):
    old = SpanBasis(3)
    old.insert({0: 1})
    path = cache_basis(tmp_path, "atomic_case", old)
    new = SpanBasis(3)
    new.insert({1: 1, 2: Fraction(-1, 2)})
    new.insert({0: 4})
    # rewriting replaces the entry whole and leaves no temporary file behind
    assert cache_basis(tmp_path, "atomic_case", new) == path
    assert sorted(p.name for p in tmp_path.iterdir()) == [path.name]
    assert load_basis(tmp_path, "atomic_case") == new


def test_basis_cache_miss_and_stale(tmp_path):
    assert load_basis(tmp_path, "never_written") is None
    basis = SpanBasis(2)
    basis.insert({0: 1})
    path = cache_basis(tmp_path, "stale_case", basis)
    payload = json.loads(path.read_text())
    payload["package_version"] = "0.0.0"
    path.write_text(json.dumps(payload))
    assert load_basis(tmp_path, "stale_case") is None


def test_basis_cache_corrupt_file_warns(tmp_path):
    basis = SpanBasis(2)
    basis.insert({0: 1})
    path = cache_basis(tmp_path, "corrupt_case", basis)
    path.write_text("{not json")
    with pytest.warns(UserWarning):
        assert load_basis(tmp_path, "corrupt_case") is None


def test_basis_cache_zero_denominator_warns(tmp_path):
    basis = SpanBasis(2)
    basis.insert({0: 1, 1: Fraction(1, 2)})
    path = cache_basis(tmp_path, "zero_denominator_case", basis)
    path.write_text(path.read_text().replace('"1/2"', '"1/0"'))
    with pytest.warns(UserWarning):
        assert load_basis(tmp_path, "zero_denominator_case") is None


def test_basis_cache_non_object_top_level_warns(tmp_path):
    basis = SpanBasis(2)
    basis.insert({0: 1})
    path = cache_basis(tmp_path, "list_case", basis)
    path.write_text(json.dumps([1, 2, 3]))
    with pytest.warns(UserWarning):
        assert load_basis(tmp_path, "list_case") is None


def test_context_uses_cache(tmp_path):
    first = CheckContext(1, cache_dir=str(tmp_path))
    dim = first.terwilliger.dimension
    assert (tmp_path / f"m1_terwilliger_v{__version__}.json").exists()
    second = CheckContext(1, cache_dir=str(tmp_path))
    assert second.terwilliger.closure is None  # loaded, not rebuilt
    assert second.terwilliger.dimension == dim
    assert second.terwilliger.basis == first.terwilliger.basis


def test_export_matrices_m1(tmp_path):
    written = export_matrices(1, tmp_path)
    names = sorted(p.name for p in written)
    assert len(names) == 31  # 4 + 4 distance/idempotent, 20 orbits, psi, 2 bases
    assert "m1_A0.mtx" in names
    assert "m1_Estar3.mtx" in names
    assert "m1_psi.mtx" in names
    assert "m1_basis_centralizer.mtx" in names
    assert "m1_basis_terwilliger.mtx" in names
    orbit_names = [n for n in names if n.startswith("m1_orbit_")]
    assert len(orbit_names) == 20
    assert "m1_orbit_II_0,1,1,0.mtx" in names
    g = GroundSet(1)
    label = OrbitLabel(BlockTag.II, (0, 1, 1, 0))
    assert read_coord_text(tmp_path / "m1_orbit_II_0,1,1,0.mtx") == orbit_matrix(g, label)
    # every exported file re-imports bit-exactly
    rewritten = tmp_path / "again"
    rewritten.mkdir()
    for path in written:
        copy = rewritten / path.name
        write_coord_text(read_coord_text(path), copy)
        assert copy.read_text() == path.read_text()


def test_cache_terwilliger_basis_m3(tmp_path, ctx_for):
    basis = ctx_for(3).terwilliger.basis
    cache_basis(tmp_path, "m3_terwilliger", basis)
    loaded = load_basis(tmp_path, "m3_terwilliger")
    assert loaded is not None
    assert loaded.dimension == 140
    assert loaded.pivots == basis.pivots
    assert loaded == basis


def test_headline_dimensions():
    assert headline_dimensions(1) == {
        "vertices": 6,
        "centralizer_dim": 20,
        "terwilliger_dim": 20,
        "center_dim": 2,
    }


def test_cli_verify_writes_report(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["verify", "--m", "1", "--checks", "vertex-count,upsilon", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert [entry["check"] for entry in payload] == ["vertex-count", "upsilon"]
    err = capsys.readouterr().err
    assert "vertex-count (m=1): pass" in err


def test_cli_verify_stdout(capsys):
    code = main(["verify", "--m", "1", "--checks", "vertex-count"])
    assert code == 0
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert payload[0]["status"] == "pass"


def test_cli_rejects_bad_m(capsys):
    assert main(["verify", "--m", "6"]) == 2
    assert main(["verify", "--m", "5"]) == 2
    assert main(["dims", "--m", "0"]) == 2
    err = capsys.readouterr().err
    assert "outside the supported range" in err


def test_cli_rejects_inapplicable_check(capsys):
    assert main(["verify", "--m", "4", "--checks", "distance-regular"]) == 2
    assert "not applicable" in capsys.readouterr().err


def test_cli_rejects_unknown_check(capsys):
    assert main(["verify", "--m", "1", "--checks", "nonsense"]) == 2
    assert "unknown check" in capsys.readouterr().err


def test_cli_dims(capsys):
    assert main(["dims", "--m", "1"]) == 0
    out = capsys.readouterr().out
    assert "vertices          = 6" in out
    assert "Terwilliger dim   = 20" in out


def test_cli_export(tmp_path, capsys):
    code = main(["export", "--m", "1", "--export-dir", str(tmp_path / "exp")])
    assert code == 0
    assert "wrote 31 files" in capsys.readouterr().err
