"""Report registry, run configuration, export and the CLI."""

import gc
import hashlib
import inspect
import json
import os
import re
import stat
import threading
import weakref
from pathlib import Path

import conftest
import pytest
from helpers import adjacency_matrix, merged_orbit_coordinates, orbit_matrix, read_coord_text, reports_without_elapsed

from doubled_odd import checks as checks_module
from doubled_odd import combinatorics as combinatorics_module
from doubled_odd import covering as covering_module
from doubled_odd import orbits as orbits_module
from doubled_odd import terwilliger as terwilliger_module
from doubled_odd.checks import (
    _RUNNERS,
    CHECK_IDS,
    CheckContext,
    ConfigError,
    RunConfig,
    VerificationReport,
    applicable,
    export_matrices,
    headline_dimensions,
    render_reports,
    run,
    write_coord_entries,
)
from doubled_odd.cli import main
from doubled_odd.linalg import NotClosedError, SpanBasis, SparseExactMatrix
from doubled_odd.orbits import (
    BLOCK_FAMILIES,
    BlockTag,
    LabelScheme,
    OrbitCoordinates,
    OrbitLabel,
    PushTable,
    check_subalgebra,
)
from doubled_odd.combinatorics import GroundSet
from doubled_odd.terwilliger import build_terwilliger, center_basis, verify_equality

_ALLOWED_PROVENANCE = {"paper-formula", "derived-oracle", "finding-only"}


def test_registry_is_closed_and_ordered():
    assert len(CHECK_IDS) == 16
    assert len(set(CHECK_IDS)) == 16
    assert CHECK_IDS[0] == "vertex-count"
    assert CHECK_IDS[-1] == "psi-intertwining"


def test_applicability_table():
    assert applicable("distance-regular", 5)
    assert applicable("subalgebra-closure", 5)
    assert applicable("orbits-oracle", 4)
    assert not applicable("orbits-oracle", 5)
    assert not applicable("block-profile", 2)
    assert applicable("block-profile", 3)
    assert applicable("vertex-count", 5)
    assert sum(applicable(c, 3) for c in CHECK_IDS) == 16
    assert sum(applicable(c, 1) for c in CHECK_IDS) == 15
    assert sum(applicable(c, 4) for c in CHECK_IDS) == 16
    assert sum(applicable(c, 5) for c in CHECK_IDS) == 15
    with pytest.raises(ConfigError):
        applicable("no-such-check", 3)


def test_run_config_validation():
    with pytest.raises(ConfigError):
        RunConfig(m=0)
    with pytest.raises(ConfigError, match=r"m=6 outside the supported range \[1, 5\]"):
        RunConfig(m=6)
    RunConfig(m=5)
    with pytest.raises(ConfigError, match="unknown check 'bogus'"):
        RunConfig(m=2, checks=("vertex-count", "bogus"))
    with pytest.raises(ConfigError, match="check 'orbits-oracle' is not applicable at m=5"):
        RunConfig(m=5, checks=("orbits-oracle",))
    # bool is an int subclass, so True and False need their own test
    for bad in ("2", 2.0, True, False):
        with pytest.raises(ConfigError, match=f"m must be an integer, got {bad!r}"):
            RunConfig(m=bad)
    # one string is one name, not a selection of one-letter checks
    with pytest.raises(ConfigError, match="not the string 'lemma41'"):
        RunConfig(3, checks="lemma41")
    # an export_dir that is no path fails here, not after every check ran
    for bad in (5, b"e", ["e"]):
        with pytest.raises(ConfigError, match=f"export_dir must be a path, got {re.escape(repr(bad))}"):
            RunConfig(3, export_dir=bad)
    assert RunConfig(3, export_dir=Path("e")).export_dir == Path("e")


def test_run_config_is_an_immutable_value():
    cfg = RunConfig(3)
    assert (cfg.m, cfg.checks, cfg.export_dir) == (3, None, None)
    assert repr(cfg) == "RunConfig(m=3, checks=None, export_dir=None)"
    cfg = RunConfig(export_dir="e", checks=("lemma41",), m=4)
    assert (cfg.m, cfg.checks, cfg.export_dir) == (4, ("lemma41",), "e")
    assert cfg == RunConfig(4, ("lemma41",), "e")
    assert cfg != RunConfig(4, ("lemma41",)) and cfg != RunConfig(3)
    assert hash(cfg) == hash(RunConfig(4, ("lemma41",), "e"))
    # a value of its own class only, hashed like the tuple of its fields
    assert RunConfig(3) != GroundSet(3) and GroundSet(3) != RunConfig(3)
    assert RunConfig(3) != (3, None, None) and hash(RunConfig(3)) == hash((3, None, None))
    with pytest.raises(AttributeError):
        cfg.m = 3
    with pytest.raises(AttributeError):
        del cfg.checks
    with pytest.raises(TypeError):
        RunConfig()


def test_run_config_holds_a_list_selection_as_a_tuple():
    # a list selection is frozen on validation: the config hashes, and the
    # checks validated against their caps cannot be widened afterwards
    cfg = RunConfig(5, checks=["vertex-count"])
    assert cfg.checks == ("vertex-count",)
    assert cfg == RunConfig(5, ("vertex-count",))
    assert hash(cfg) == hash(RunConfig(5, ("vertex-count",)))
    with pytest.raises(AttributeError):
        cfg.checks.append("orbits-oracle")
    assert [r.check for r in run(cfg)] == ["vertex-count"]


def test_verification_report_to_dict():
    report = VerificationReport("upsilon", 3, 6, "paper-formula", 6, "pass", 12)
    assert report.to_dict() == {
        "check": "upsilon",
        "m": 3,
        "expected": {"value": 6, "provenance": "paper-formula"},
        "actual": 6,
        "status": "pass",
        "elapsed_ms": 12,
    }
    assert report == VerificationReport(
        check="upsilon", m=3, expected=6, provenance="paper-formula", actual=6, status="pass", elapsed_ms=12
    )


def test_run_rejects_explicit_inapplicable_check():
    with pytest.raises(ConfigError):
        run(RunConfig(m=5, checks=("orbits-oracle",)))


def test_run_config_rejects_an_empty_check_selection(capsys):
    # an empty selection would run no check; the command line says the same
    with pytest.raises(ConfigError, match="^empty --checks list$"):
        RunConfig(m=1, checks=())
    assert main(["verify", "--m", "1", "--checks", ","]) == 2
    assert capsys.readouterr().err == "error: empty --checks list\n"


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


def test_index_sets_fails_when_the_pair_pass_misses_a_closed_form_label(monkeypatch, fresh_memos):
    # the check compares the closed-form labels with the labels met on the
    # 2m+2 sphere rows; drop one closed-form label and they differ
    labels = orbits_module._orbit_labels(1)
    for module in (orbits_module, checks_module):
        monkeypatch.setattr(module, "_orbit_labels", lambda _m: labels[:-1])
    (report,) = run(RunConfig(m=1, checks=("index-sets",)))
    assert report.actual == {"cardinalities": [5] * 4, "matches_enumeration": False}
    assert report.status == "fail"


def _trace_index_builds(monkeypatch) -> list[OrbitCoordinates]:
    # every OrbitCoordinates built, in the order its construction began
    built: list[OrbitCoordinates] = []
    init = OrbitCoordinates.__init__
    monkeypatch.setattr(OrbitCoordinates, "__init__", lambda self, m: built.append(self) or init(self, m))
    return built


def test_index_sets_passes_on_a_stabilizer_generator_fault_without_an_orbit_index(monkeypatch, fresh_memos):
    # without the cycle on S - x0 the orbit certificate rejects the index,
    # but the labels met on the sphere rows are still the closed-form
    # labels: index-sets reads their keys and builds no index
    generators = orbits_module.stabilizer_generators
    monkeypatch.setattr(orbits_module, "stabilizer_generators", lambda g: generators(g)[:-1])
    built = _trace_index_builds(monkeypatch)
    with pytest.raises(NotClosedError, match="is not a single orbit"):
        OrbitCoordinates(2)
    built.clear()
    (report,) = run(RunConfig(m=2, checks=("index-sets",)))
    assert report.actual == {"cardinalities": [15] * 4, "matches_enumeration": True}
    assert report.status == "pass" and built == []


def test_index_sets_fails_on_a_label_key_outside_the_closed_form(monkeypatch, fresh_memos):
    # the pair (x0, x0) keyed as I:1,1,1,0, which no pair carries at m = 1:
    # the labels met lack I:1,1,1,1 and hold a label outside the closed form
    real, bogus = (orbits_module._label_key(1, OrbitLabel(BlockTag.I, tup)) for tup in ((1, 1, 1, 1), (1, 1, 1, 0)))
    label_keys = orbits_module._label_keys
    monkeypatch.setattr(
        orbits_module, "_label_keys", lambda m, yi, zs: [bogus if k == real else k for k in label_keys(m, yi, zs)]
    )
    built = _trace_index_builds(monkeypatch)
    (report,) = run(RunConfig(m=1, checks=("index-sets",)))
    assert report.actual == {"cardinalities": [5] * 4, "matches_enumeration": False}
    assert report.status == "fail" and built == []


def test_small_m_findings_record_expected_values():
    reports = {r.check: r for r in run(RunConfig(m=2, checks=("terwilliger-dim", "center-dim")))}
    assert reports["terwilliger-dim"].actual == {"dim": 60}
    assert reports["center-dim"].actual == {"dim": 4, "upsilon_size": 4}


def test_runs_are_deterministic():
    cfg = RunConfig(m=1)
    assert reports_without_elapsed(run(cfg)) == reports_without_elapsed(run(cfg))


def test_progress_callback_sees_every_check():
    lines = []
    run(RunConfig(m=1, checks=("vertex-count", "upsilon")), progress=lines.append)
    assert len(lines) == 2
    assert lines[0].startswith("vertex-count (m=1): pass")


def test_export_matrices_m1(tmp_path):
    written = export_matrices(CheckContext(1), tmp_path)
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
        matrix = read_coord_text(path)
        write_coord_entries(matrix.nrows, matrix.ncols, matrix.entries(), copy)
        assert copy.read_text() == path.read_text()


def test_coord_text_rejects_damage(tmp_path):
    # each holds a line write_coord_entries never writes: a header with a
    # negative size, an entry outside the matrix, a repeated entry, a zero
    # value, a zero denominator, an entry before its predecessor, and a
    # line of two tokens
    path = tmp_path / "bad.mtx"
    for text, line in [
        ("2 -1 0\n", 1),
        ("-1 -1 0\n", 1),
        ("2 2 1\n5 0 1\n", 2),
        ("2 2 2\n0 0 1\n0 0 5\n", 3),
        ("2 2 1\n0 1 0\n", 2),
        ("2 2 1\n0 1 1/0\n", 2),
        ("2 2 2\n1 0 1\n0 1 1\n", 3),
        ("2 2 1\n\n0 1\n", 3),
    ]:
        path.write_text(text)
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))} line {line}: "):
            read_coord_text(path)


def test_headline_dimensions():
    assert headline_dimensions(1) == {
        "vertices": 6,
        "centralizer_dim": 20,
        "terwilliger_dim": 20,
        "center_dim": 2,
    }


@pytest.mark.slow
def test_m5_runs_every_applicable_check_by_default():
    reports = run(RunConfig(m=5))
    assert [r.check for r in reports] == [c for c in CHECK_IDS if c != "orbits-oracle"]
    assert len(reports) == 15
    statuses = {r.check: r.status for r in reports}
    assert statuses.pop("subalgebra-closure") == "finding"
    assert set(statuses.values()) == {"pass"}
    assert reports_without_elapsed(reports) == _pinned_reports(5)
    assert headline_dimensions(5) == {
        "vertices": 924,
        "centralizer_dim": 504,
        "terwilliger_dim": 504,
        "center_dim": 12,
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
    assert main(["dims", "--m", "0"]) == 2
    err = capsys.readouterr().err
    assert "outside the supported range" in err
    # m = 5 needs no opt-in, and the old opt-in flag is an unknown argument
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--m", "5", "--allow-m5"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --allow-m5" in capsys.readouterr().err


def test_cli_rejects_inapplicable_check(tmp_path, capsys):
    assert main(["verify", "--m", "5", "--checks", "orbits-oracle"]) == 2
    assert "not applicable" in capsys.readouterr().err
    # a configuration error leaves no report file behind
    out = tmp_path / "report.json"
    assert main(["verify", "--m", "5", "--checks", "orbits-oracle", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_cli_rejects_unknown_check(capsys):
    assert main(["verify", "--m", "1", "--checks", "nonsense"]) == 2
    assert "unknown check" in capsys.readouterr().err


@pytest.mark.parametrize("option", ["--out", "--export-dir"])
def test_cli_unwritable_output_path_exits_2(tmp_path, capsys, option):
    blocker = tmp_path / "file"
    blocker.write_text("")
    path = {
        "--out": tmp_path / "missing" / "report.json",
        "--export-dir": blocker / "export",
    }[option]
    args = ["verify", "--m", "1", "--checks", "vertex-count", option, str(path)]
    report = tmp_path / "report.json"
    if option != "--out":
        args += ["--out", str(report)]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    # each path fails before any check runs, with one error line
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    # a run that stops on an error leaves no report file behind
    assert not report.exists()


@pytest.mark.parametrize("under", [False, True])
def test_cli_export_dir_at_or_under_a_file_fails_before_any_check(tmp_path, capsys, under):
    blocker = tmp_path / "file"
    blocker.write_text("")
    export = blocker / "sub" if under else blocker
    reason = "Not a directory" if under else "it is not a directory"
    # verify and export report the path alike
    for command in ("verify", "export"):
        assert main([command, "--m", "1", "--export-dir", str(export)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: cannot use --export-dir {export}: {reason}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["file"]


@pytest.mark.parametrize("command", ["verify", "export"])
def test_cli_rejects_an_empty_export_dir_before_any_check(tmp_path, capsys, monkeypatch, command):
    # Path("") is the working directory, which the export would fill
    monkeypatch.chdir(tmp_path)
    assert main([command, "--m", "1", "--export-dir", ""]) == 2
    assert capsys.readouterr() == ("", "error: empty --export-dir path\n")
    assert list(tmp_path.iterdir()) == []


def test_export_matrices_rejects_an_empty_export_dir(tmp_path, monkeypatch):
    # Path("") is the working directory: export_matrices refuses "" before
    # it builds or writes anything
    monkeypatch.chdir(tmp_path)
    with pytest.raises(ConfigError, match="^empty --export-dir path$"):
        export_matrices(CheckContext(1), "")
    assert list(tmp_path.iterdir()) == []


def test_run_fails_on_an_unusable_export_dir_before_any_check(tmp_path):
    # run() makes the export directory before its first check, so a caller
    # of the API sees the command line's message as early as the CLI does
    blocker = tmp_path / "file"
    blocker.write_text("")
    export = blocker / "sub"
    seen = []
    with pytest.raises(OSError, match=f"^cannot use --export-dir {re.escape(str(export))}: "):
        run(RunConfig(3, export_dir=str(export)), progress=seen.append)
    assert seen == []


def test_export_reads_m_off_its_context(tmp_path):
    # export_matrices takes no m beside its context, so the file names and
    # the matrices in them are of one m
    assert list(inspect.signature(export_matrices).parameters) == ["ctx", "export_dir"]
    written = export_matrices(CheckContext(2), tmp_path)
    assert len(written) == 75
    assert all(path.name.startswith("m2_") for path in written)
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(p.name for p in written)
    assert (tmp_path / "m2_A0.mtx").read_text().startswith("20 20 20\n")


def test_run_config_rejects_an_empty_export_dir(tmp_path, monkeypatch):
    # a run with export_dir="" would write its files into the working
    # directory: the configuration is refused before any check runs
    monkeypatch.chdir(tmp_path)
    with pytest.raises(ConfigError, match="^empty --export-dir path$"):
        run(RunConfig(1, checks=("vertex-count",), export_dir=""))
    assert list(tmp_path.iterdir()) == []


def test_cli_rejects_an_empty_out_before_any_check(tmp_path, capsys, monkeypatch):
    # the temporary report would go to the working directory, and the
    # rename onto "" would fail only after every check
    monkeypatch.chdir(tmp_path)
    assert main(["verify", "--m", "1", "--out", ""]) == 2
    assert capsys.readouterr() == ("", "error: empty --out path\n")
    assert list(tmp_path.iterdir()) == []


def test_cli_makes_no_export_dir_when_out_cannot_be_written(tmp_path, capsys, monkeypatch):
    # the report's temporary file is opened before --export-dir is made, so
    # a report path under a missing directory leaves no empty export behind
    monkeypatch.chdir(tmp_path)
    assert main(["verify", "--m", "1", "--checks", "vertex-count", "--export-dir", "exp", "--out", "missing/r.json"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: cannot write --out missing/r.json")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("existing", [False, True], ids=["new-export", "existing-export"])
@pytest.mark.parametrize("name", ["m1_A0.mtx", None], ids=["file-in-it", "the-dir"])
def test_cli_rejects_an_out_in_the_export_dir_before_any_check(tmp_path, capsys, monkeypatch, existing, name):
    # the report is renamed into place after the export, so inside the
    # export it would replace an exported file, and at the export it would
    # fail only after every check; --export-dir is given relative and --out
    # absolute, so the two are compared as resolved paths
    monkeypatch.chdir(tmp_path)
    export = tmp_path / "exp"
    if existing:
        export.mkdir()
        (export / "m1_A0.mtx").write_text("kept\n")
    out = export / name if name else export
    assert main(["verify", "--m", "1", "--export-dir", "exp", "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", f"error: --out {out} lies in --export-dir exp\n")
    assert sorted(tmp_path.rglob("*")) == ([export, export / "m1_A0.mtx"] if existing else [])
    if existing:
        assert (export / "m1_A0.mtx").read_text() == "kept\n"


@pytest.mark.parametrize("command", ["dims", "export"])
@pytest.mark.parametrize("under", [False, True])
def test_cli_dims_and_export_reject_cache_dir(tmp_path, capsys, command, under):
    # dims and export have no --cache-dir: argparse refuses it whatever the
    # path names, before any check runs and without touching the path
    blocker = tmp_path / "file"
    blocker.write_text("kept")
    cache = blocker / "sub" if under else blocker
    args = [command, "--m", "1", "--cache-dir", str(cache)]
    if command == "export":
        args += ["--export-dir", str(tmp_path / "export")]
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "unrecognized arguments: --cache-dir" in err
    assert blocker.read_text() == "kept"
    assert list(tmp_path.iterdir()) == [blocker]


@pytest.mark.parametrize("under", [False, True])
def test_cli_verify_ignores_a_cache_dir_at_or_under_a_regular_file(tmp_path, capsys, under):
    blocker = tmp_path / "file"
    blocker.write_text("kept")
    cache = blocker / "sub" if under else blocker
    assert main(["verify", "--m", "1", "--checks", "terwilliger-dim", "--cache-dir", str(cache)]) == 0
    assert json.loads(capsys.readouterr().out)[0]["status"] == "finding"
    assert blocker.read_text() == "kept"
    assert list(tmp_path.iterdir()) == [blocker]


def test_verify_closes_t_and_leaves_the_cache_dir_empty(tmp_path, capsys):
    # --cache-dir is accepted and ignored: the reports are the benchmark's
    # m = 3 reference, and T comes from its closure, one product per basis
    # row by its one generator, A_1
    cache = tmp_path / "cache"
    cache.mkdir()
    assert main(["verify", "--m", "3", "--cache-dir", str(cache)]) == 0
    reports = json.loads(capsys.readouterr().out)
    for entry in reports:
        del entry["elapsed_ms"]
    assert reports == json.loads((_BENCHMARK_REFERENCE / "m3.json").read_text())["reports"]
    assert list(cache.iterdir()) == []
    assert CheckContext(3).terwilliger.iterations == 140


def test_the_package_keeps_no_basis_cache():
    # T is closed and Z(T) solved on every run: no basis is written to or
    # read from disk, and no stored span is certified
    assert [name for name in ("cache_basis", "load_basis", "_basis_path") if hasattr(checks_module, name)] == []
    deleted = ("certify_terwilliger_span", "certify_center_span", "_generator_name")
    assert [name for name in deleted if hasattr(terwilliger_module, name)] == []
    assert RunConfig.__slots__ == ("m", "checks", "export_dir")
    assert not hasattr(CheckContext(1), "cache_dir")


def test_cli_error_run_keeps_an_existing_report(tmp_path, capsys, monkeypatch):
    # the report goes to a temporary file that replaces --out only when
    # complete, so a run that stops on an error leaves --out as it was
    report = tmp_path / "keep.json"
    report.write_bytes(b"{}\n")

    def failing_writer(*_args):
        raise OSError("cannot write the matrix")

    monkeypatch.setattr(checks_module, "write_coord_entries", failing_writer)
    export = tmp_path / "export"
    args = ["verify", "--m", "1", "--checks", "vertex-count", "--export-dir", str(export)]
    assert main(args + ["--out", str(report)]) == 2
    # the export follows the checks, so the error comes after their progress
    assert capsys.readouterr().err.splitlines()[-1] == "error: cannot write the matrix"
    assert report.read_bytes() == b"{}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["export", "keep.json"]
    # a directory is no report path, and that shows before any check runs
    assert main(["verify", "--m", "1", "--checks", "vertex-count", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"error: cannot write --out {tmp_path}: it is a directory\n"
    # a complete run replaces the report
    assert main(["verify", "--m", "1", "--checks", "vertex-count", "--out", str(report)]) == 0
    assert json.loads(report.read_text())[0]["check"] == "vertex-count"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["export", "keep.json"]


def test_cli_out_writes_a_fifo_directly(tmp_path, capsys):
    # a pipe holds no report to keep: the report goes down it, and the
    # path stays a FIFO rather than being replaced by a regular file
    fifo = tmp_path / "ff"
    os.mkfifo(fifo)
    received = []

    def read_fifo():
        with open(fifo) as pipe:
            received.append(pipe.read())

    reader = threading.Thread(target=read_fifo, daemon=True)
    reader.start()
    assert main(["verify", "--m", "1", "--checks", "vertex-count", "--out", str(fifo)]) == 0
    reader.join(timeout=30)
    assert stat.S_ISFIFO(fifo.lstat().st_mode)
    assert not reader.is_alive() and json.loads(received[0])[0]["check"] == "vertex-count"
    assert [p.name for p in tmp_path.iterdir()] == ["ff"]
    assert capsys.readouterr().err.endswith(f"report written to {fifo}\n")


def test_cli_out_through_a_symlink_replaces_its_target(tmp_path):
    # the report is renamed over the link's target, so the link still
    # points at it, and the temporary file is made beside the target
    reports, links = tmp_path / "reports", tmp_path / "links"
    reports.mkdir()
    links.mkdir()
    target, link = reports / "target.json", links / "link.json"
    target.write_text("old\n")
    link.symlink_to(target)
    assert main(["verify", "--m", "1", "--checks", "vertex-count", "--out", str(link)]) == 0
    assert link.is_symlink() and link.resolve() == target
    assert json.loads(target.read_text())[0]["check"] == "vertex-count"
    assert [p.name for p in reports.iterdir()] == ["target.json"]
    assert [p.name for p in links.iterdir()] == ["link.json"]


def test_cli_dims(capsys):
    assert main(["dims", "--m", "1"]) == 0
    out = capsys.readouterr().out
    assert "vertices          = 6" in out
    assert "Terwilliger dim   = 20" in out


def test_cli_export(tmp_path, capsys):
    code = main(["export", "--m", "1", "--export-dir", str(tmp_path / "exp")])
    assert code == 0
    assert "wrote 31 files" in capsys.readouterr().err


_BENCHMARK_REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference"
_PINNED = Path(__file__).resolve().parent / "data"


def _pinned_reports(m: int) -> list:
    return json.loads((_PINNED / f"verify_m{m}.json").read_text())


def _tree_digest(directory: Path) -> str:
    # sha256 over the sorted file names and contents, as the benchmark takes it
    h = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        h.update(path.name.encode() + b"\0")
        h.update(path.read_bytes())
        h.update(b"\0")
    return h.hexdigest()


def test_warm_export_matches_the_benchmark_reference(tmp_path):
    # the export of the benchmark's warm-m3 workload, which spreads T's
    # basis in Q^d over the pair positions of its orbits
    reference = json.loads((_BENCHMARK_REFERENCE / "m3.json").read_text())
    run(RunConfig(m=3, checks=("terwilliger-dim",), export_dir=str(tmp_path / "export")))
    assert _tree_digest(tmp_path / "export") == reference["export_sha256"]


# the export tree digests at m = 1, 2 and 4, first made when the export
# built its files as n x n matrices (m = 3 is the benchmark's warm-m3
# reference); they pin the first-pair row order of both basis files
_EXPORT_DIGESTS = json.loads((_PINNED / "export_digests.json").read_text())


@pytest.mark.parametrize("m, digest", [
    pytest.param(int(m), digest, marks=[pytest.mark.slow] if int(m) >= 4 else [])
    for m, digest in _EXPORT_DIGESTS.items()
])
def test_export_matches_the_pinned_digest(tmp_path, m, digest):
    export_matrices(CheckContext(m), tmp_path)
    assert _tree_digest(tmp_path) == digest


@pytest.mark.parametrize("reference, m, every_check", [("m3", 3, True), ("orbits-m4", 4, False)])
def test_reports_match_the_benchmark_reference(reference, m, every_check):
    # the benchmark's stored reports of `verify --m 3` and of its m = 4 orbit checks
    expected = json.loads((_BENCHMARK_REFERENCE / f"{reference}.json").read_text())["reports"]
    checks = None if every_check else tuple(r["check"] for r in expected)
    assert reports_without_elapsed(run(RunConfig(m=m, checks=checks))) == expected


def test_verify_path_builds_no_n2_span_and_one_orbit_coordinates(tmp_path, monkeypatch, fresh_memos):
    # no n^2-ambient span at all, the export's included, and one
    # OrbitCoordinates per run, for runs with and without the export and a
    # second centre solve: the export writes its bases from pair positions
    # of the run's index.  OrbitCoordinates is the one orbit index and a
    # run's CheckContext its one owner: no second index class or index memo
    # sits beside it, and the package's per-m memos are the neighbour tables
    # of the two graphs
    for name in ("SphereRows", "_sphere_rows", "_number_sphere_rows", "_orbit_coordinates"):
        assert not hasattr(orbits_module, name)
    assert conftest._PER_M_MEMOS == (combinatorics_module._neighbours, covering_module._odd_neighbours)
    n2 = 70 ** 2
    n2_bases: list[int] = []  # the ambient dimension of each n^2-ambient SpanBasis
    coords_built: list[weakref.ref] = []
    span_init, coords_init = SpanBasis.__init__, OrbitCoordinates.__init__

    def traced_span_init(self, ambient_dim):
        if ambient_dim == n2:
            n2_bases.append(ambient_dim)
        span_init(self, ambient_dim)

    def traced_coords_init(self, m):
        coords_built.append(weakref.ref(self))
        coords_init(self, m)

    monkeypatch.setattr(SpanBasis, "__init__", traced_span_init)
    monkeypatch.setattr(OrbitCoordinates, "__init__", traced_coords_init)

    run(RunConfig(m=3))
    assert (n2_bases, len(coords_built)) == ([], 1)
    run(RunConfig(m=3, export_dir=str(tmp_path / "export")))
    assert (tmp_path / "export" / "m3_basis_terwilliger.mtx").exists()
    assert (n2_bases, len(coords_built)) == ([], 2)
    ctx = CheckContext(3)
    assert center_basis(ctx.terwilliger).dimension == 6
    assert (n2_bases, len(coords_built)) == ([], 3)
    # nothing outlives a finished run's context that holds its index
    gc.collect()
    assert [ref() for ref in coords_built[:2]] == [None, None] and coords_built[2]() is ctx.centralizer
    assert not hasattr(ctx.centralizer, "span")
    assert not hasattr(ctx.centralizer, "matrices")
    assert not hasattr(ctx.terwilliger, "coordinates")
    # T closes under A_1's push tables alone: the scheme keeps no E*_i table
    # and no generator list
    assert [name for name in ("generators", "projection") if hasattr(LabelScheme, name)] == []
    assert isinstance(ctx.centralizer.adjacency, PushTable)


@pytest.mark.parametrize("options, builds", [
    (["--checks", "psi-intertwining"], 0),
    ([], 1),
    (["--export-dir", None], 1),
])
def test_a_verify_run_builds_at_most_one_orbit_index(tmp_path, capsys, monkeypatch, options, builds):
    # a full verify --m 3 builds the index once, for every check that reads
    # it and for the export, and psi-intertwining, which takes its spheres
    # from a breadth-first search, builds none
    built = _trace_index_builds(monkeypatch)
    options = [str(tmp_path / "export") if option is None else option for option in options]
    assert main(["verify", "--m", "3", *options]) == 0
    capsys.readouterr()
    assert [index.m for index in built] == [3] * builds


def test_verify_makes_no_push_table_but_a1s(monkeypatch, fresh_memos):
    # the closure brings in the E*_i by splitting each product by sphere,
    # and the centre solves against A_1 alone, so a full verify --m 3 makes
    # one push table, A_1's, and no E*_i table
    made: list[PushTable] = []
    new = PushTable.__new__
    monkeypatch.setattr(PushTable, "__new__", lambda cls, *args: made.append(new(cls, *args)) or made[-1])
    built = _trace_index_builds(monkeypatch)
    assert len(run(RunConfig(m=3))) == 16
    assert len(built) == len(made) == 1 and made[0] is built[0].adjacency
    # the trace sees a push table where one is made
    PushTable((), ())
    assert len(made) == 2


def _trace_vertex_square_matrices(monkeypatch) -> list[SparseExactMatrix]:
    # every SparseExactMatrix made with as many rows and columns as the
    # doubled Odd graph of some m in 1..5 has vertices
    squares = {6, 20, 70, 252, 924}
    made: list[SparseExactMatrix] = []
    init = SparseExactMatrix.__init__

    def traced_init(self, nrows, ncols, rows=None):
        init(self, nrows, ncols, rows)
        if nrows == ncols and nrows in squares:
            made.append(self)

    monkeypatch.setattr(SparseExactMatrix, "__init__", traced_init)
    return made


def test_the_verify_path_builds_no_distance_matrix_and_no_n2_action_table(monkeypatch, fresh_memos):
    # T's generators act through their push tables, each A_i is the
    # indicator of the orbits at distance i, A_1 is read off the neighbour
    # table and psi's identities off the fold map, so neither a cold
    # verify --m 3 without export nor the benchmark's m = 4 orbit checks
    # build an n x n matrix at all (no distance matrix, no A_1 and no E*_i)
    # or multiply two matrices: the n x n products are the tests' oracles
    # (helpers.n2_intertwining, helpers.n2_sandwich_identities)
    assert not hasattr(combinatorics_module, "_distance_matrices")
    made = _trace_vertex_square_matrices(monkeypatch)
    products = []
    matmul = SparseExactMatrix.__matmul__
    monkeypatch.setattr(SparseExactMatrix, "__matmul__", lambda a, b: products.append(1) or matmul(a, b))
    assert len(run(RunConfig(m=3))) == 16
    reference = json.loads((_BENCHMARK_REFERENCE / "orbits-m4.json").read_text())["reports"]
    run(RunConfig(m=4, checks=tuple(r["check"] for r in reference)))
    assert (made, products) == ([], [])
    # the trace sees an n x n matrix where one is made
    adjacency_matrix(GroundSet(4))
    assert [(a.nrows, a.ncols) for a in made] == [(252, 252)]
    # the pass over all vertex pairs that read off action tables is the
    # tests' oracle (helpers.action_tables), not a method of the package
    assert not hasattr(OrbitCoordinates, "action_tables")


def test_the_package_keeps_no_n_by_n_orbit_distance_or_sandwich_builder():
    # the sphere rows alone decide which orbit a pair is in: lemma41 counts
    # the orbits of A_1's entries by label, the export reads pair positions
    # off OrbitCoordinates.row, T's generators are vectors of Q^d, and the n x n
    # builders, the lift of a basis, the vertex maps moved a point at a time
    # and the action tables read off every vertex pair are the tests'
    # oracles (helpers)
    deleted = {
        orbits_module: ("_orbit_matrices", "orbit_matrices", "orbit_matrix", "_apply_perm", "_product_row", "orbit_labels"),
        combinatorics_module: ("_distance_matrices", "distance_matrices", "adjacency_matrix"),
        terwilliger_module: ("_sandwiches", "dual_idempotents", "dual_idempotent"),
        covering_module: ("odd_adjacency", "_odd_adjacency", "odd_sphere_diagonal"),
    }
    for module, names in deleted.items():
        assert [name for name in names if hasattr(module, name)] == []
    assert not hasattr(OrbitCoordinates, "lift")
    assert not hasattr(OrbitCoordinates, "action_tables")


@pytest.mark.parametrize("check", ["lemma41", "centralizer-dim"])
def test_the_checks_that_rest_on_sphere_transitivity_run_the_orbit_certificate(monkeypatch, fresh_memos, check):
    # lemma41 sizes each orbit as |sphere| times its count in its row, and
    # centralizer-dim tests each product on one row of its sphere: both rest
    # on the stabilizer being transitive on each sphere, which the orbit
    # certificate proves as the index is built, once per index, while A_1's
    # push tables, which neither check acts with, stay unbuilt
    certified = []
    certify = orbits_module._certify_stabilizer_orbits
    monkeypatch.setattr(orbits_module, "_certify_stabilizer_orbits", lambda index: certified.append(index.m) or certify(index))
    built = _trace_index_builds(monkeypatch)
    (report,) = run(RunConfig(m=4, checks=(check,)))
    assert report.status == "pass"
    assert certified == [4]
    assert len(built) == 1 and "adjacency" not in vars(built[0])


def test_t_and_z_runs_build_no_orbit_matrix(monkeypatch, fresh_memos):
    # the all-orbit matrices are the tests' oracle (helpers.orbit_matrices);
    # T, Z(T), their comparisons and centralizer-dim's products, tested on
    # the sphere rows, make no n x n matrix at all
    assert not hasattr(orbits_module, "_orbit_matrices")
    made = _trace_vertex_square_matrices(monkeypatch)
    reports = run(RunConfig(m=3, checks=("terwilliger-dim", "inclusion", "equality", "center-dim")))
    assert [r.status for r in reports] == ["pass"] * 4
    assert made == []
    run(RunConfig(m=3, checks=("centralizer-dim",)))
    assert made == []
    # the trace sees an n x n matrix where one is made
    adjacency_matrix(GroundSet(3))
    assert [(a.nrows, a.ncols) for a in made] == [(70, 70)]


def test_t_and_z_list_no_vertex(monkeypatch, fresh_memos):
    # T is closed and Z(T) solved on the doubled Odd graph's label scheme,
    # built from closed forms alone, with every listing of vertices, the
    # neighbour table and the orbit index made to raise: the same RREF of
    # T, the same Z(T), the same comparison of T with the centralizer and
    # the same first escaping product of each block family as the checks
    # get on the certified index
    ctx = CheckContext(3)
    expected_rows, expected_center = ctx.terwilliger.basis.rows, ctx.center
    expected_equality = verify_equality(ctx.terwilliger)
    expected_escapes = [check_subalgebra(blocks, ctx.centralizer) for blocks in BLOCK_FAMILIES.values()]

    def listed(*_args):
        raise AssertionError("a vertex was listed")

    for module in (combinatorics_module, orbits_module, terwilliger_module, covering_module, checks_module):
        for name in ("_vertices", "_vertex_index", "_neighbours"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, listed)
    scheme = LabelScheme(*orbits_module._closed_forms(3))
    t = build_terwilliger(scheme)
    assert t.basis.rows == expected_rows
    assert center_basis(t) == expected_center
    assert verify_equality(t) == expected_equality
    assert [check_subalgebra(blocks, scheme) for blocks in BLOCK_FAMILIES.values()] == expected_escapes
    # the patches bite where the index is built
    with pytest.raises(AssertionError, match="a vertex was listed"):
        CheckContext(3).terwilliger


def _count_label_keys(monkeypatch) -> list[int]:
    """Record the number of label keys of every call of orbits._label_keys,
    the one binding every reader of label keys goes through."""
    evaluated: list[int] = []
    label_keys = orbits_module._label_keys

    def counted(*args):
        keys = label_keys(*args)
        evaluated.append(len(keys))
        return keys

    monkeypatch.setattr(orbits_module, "_label_keys", counted)
    return evaluated


def test_the_orbits_m4_checks_make_no_pass_over_all_vertex_pairs(monkeypatch, fresh_memos):
    # index-sets, centralizer-dim, direct-sum and lemma41 read the 2m+2
    # sphere rows and the label keys of single rows, or of A_1's entries:
    # the benchmark's m = 4 orbit checks evaluate fewer label keys than
    # there are vertex pairs
    evaluated = _count_label_keys(monkeypatch)
    reference = json.loads((_BENCHMARK_REFERENCE / "orbits-m4.json").read_text())["reports"]
    reports = run(RunConfig(m=4, checks=tuple(r["check"] for r in reference)))
    assert [r.status for r in reports] == ["pass"] * len(reference)
    assert 0 < sum(evaluated) < 252 ** 2
    # the trace sees a pass over all pairs where there is one: orbits-oracle
    # reads the orbit ids of all n^2 pairs, row by row
    evaluated.clear()
    run(RunConfig(m=1, checks=("orbits-oracle",)))
    assert sum(evaluated) == 6 ** 2


def test_the_m4_checks_that_act_with_a1_read_one_pair_per_orbit(monkeypatch, fresh_memos):
    # distance-regular, subalgebra-closure, terwilliger-dim and center-dim
    # read the 2m+2 sphere rows and, for the cross-check of A_1's atom
    # moves, the first pair's m+1 neighbours of every orbit: at most
    # (2m+2) n + d (m+1) = 3,920 label keys at m = 4, where a product index
    # read off the first pairs' columns evaluates 35,280
    evaluated = _count_label_keys(monkeypatch)
    checks = ("distance-regular", "subalgebra-closure", "terwilliger-dim", "center-dim")
    reports = run(RunConfig(m=4, checks=checks))
    assert [r.status for r in reports] == ["pass", "finding", "pass", "pass"]
    assert 0 < sum(evaluated) <= 10 * 252 + 280 * 5


def _merged_m1_context(certified: bool = True) -> CheckContext:
    # a context at m = 1 whose orbit index merges ({2}, {3}) and ({3}, {2})
    # with ({2}, {1}) and ({3}, {1}): the square of the merged orbit matrix
    # is not constant on it.  The orbit certificate rejects the merged rows
    # as the index is built, unless it is skipped
    keep, drop = OrbitLabel(BlockTag.I, (0, 1, 0, 0)), OrbitLabel(BlockTag.I, (0, 0, 0, 0))
    ctx = CheckContext(1)
    ctx.centralizer = merged_orbit_coordinates(1, keep, drop, certified)
    return ctx


def test_centralizer_dim_fails_on_orbits_that_are_not_coherent():
    # the check's own row test, on rows built without the orbit certificate
    ctx = _merged_m1_context(certified=False)
    _, _, actual, status = _RUNNERS["centralizer-dim"](ctx)
    # dim is that of the algebra built on the doctored rows: its 19 orbits
    assert actual == {"dim": 19, "closure_ok": False, "pairs_checked": 19 ** 2}
    assert status == "fail"
    # every other check of the run that reads the index reads the same one,
    # and psi-intertwining, which reads none, still passes
    assert _RUNNERS["direct-sum"](ctx)[2]["centralizer_dim"] == 19
    assert _RUNNERS["psi-intertwining"](ctx)[3] == "pass"


def test_t_fails_on_orbits_that_are_not_coherent():
    # no index, and so no T, is built on the merged rows: the orbit
    # certificate rejects them as the index is built
    with pytest.raises(NotClosedError, match="is not a single orbit"):
        _merged_m1_context()
    # built without it, the closure meets the cross-check of A_1's atom moves
    with pytest.raises(NotClosedError, match="do not move it by its Venn atoms"):
        _merged_m1_context(certified=False).terwilliger


@pytest.mark.parametrize("m", [1, 2, pytest.param(4, marks=pytest.mark.slow)])
def test_reports_match_the_pinned_reports(m):
    # verify --m 1, 2 and 4 as the pinned files record them
    assert reports_without_elapsed(run(RunConfig(m=m))) == _pinned_reports(m)


def _trace_pair_union_find(monkeypatch) -> list:
    """Record every call of the union-find over all vertex pairs and of its
    comparison with the sphere rows, on each binding a caller may use."""
    calls = []

    def traced(name, fn):
        def wrapper(*args):
            # orbits_by_group_action takes a GroundSet, _check_group_orbits m
            calls.append((name, getattr(args[0], "m", args[0])))
            return fn(*args)
        return wrapper

    for name in ("orbits_by_group_action", "_check_group_orbits"):
        fn = getattr(orbits_module, name)
        for module in (orbits_module, checks_module):
            monkeypatch.setattr(module, name, traced(name, fn), raising=False)
    return calls


def test_a_cold_m3_run_makes_no_pass_over_all_vertex_triples(monkeypatch, fresh_memos):
    # distance-regular and subalgebra-closure rest on A_1's push tables,
    # certified on the n vertices: the one union-find over all
    # vertex pairs is orbits-oracle's, and no exhaustive pass is made, whose
    # kernel lives with the tests' oracles
    calls = _trace_pair_union_find(monkeypatch)
    reports = run(RunConfig(m=3))
    assert len(reports) == 16
    assert calls == [("orbits_by_group_action", 3), ("_check_group_orbits", 3)]
    assert not any(hasattr(module, "class_profiles") for module in (combinatorics_module, orbits_module))


def test_a_cold_m3_run_without_orbits_oracle_makes_no_pass_over_all_vertex_pairs(monkeypatch, fresh_memos):
    # the orbit certificate that distance-regular, subalgebra-closure and T
    # rest on needs no union-find over the pairs
    calls = _trace_pair_union_find(monkeypatch)
    checks = tuple(c for c in CHECK_IDS if c != "orbits-oracle")
    reports = run(RunConfig(m=3, checks=checks))
    assert len(reports) == 15 and "fail" not in {r.status for r in reports}
    assert calls == []


def test_orbits_oracle_fails_a_missing_generator_without_an_orbit_index(monkeypatch, capsys, fresh_memos):
    # the union-find of the generators less the cycle on S - x0 is finer
    # than the labels' orbits: the check compares it with the pairs' label
    # keys, so it fails without building the index, whose certificate
    # would reject the same generators
    generators = orbits_module.stabilizer_generators
    monkeypatch.setattr(orbits_module, "stabilizer_generators", lambda g: generators(g)[:-1])
    built = _trace_index_builds(monkeypatch)
    assert main(["verify", "--m", "2", "--checks", "orbits-oracle"]) == 1
    (report,) = json.loads(capsys.readouterr().out)
    assert report["actual"]["partitions_match"] is False and report["status"] == "fail"
    assert built == []
