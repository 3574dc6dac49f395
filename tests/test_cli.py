"""Command-line interface: verbs, exit codes, payloads, determinism."""

from __future__ import annotations

import json
import time

import pytest

from locrep import default_modulus, verify_grid_relations
from locrep.cli import main
from locrep.linear_code import loads
from locrep.square import SquareCode


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _run_json(capsys, *argv):
    code, out, err = _run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


@pytest.fixture()
def code_file(tmp_path, capsys):
    path = tmp_path / "code.json"
    rc, _, err = _run(
        capsys, "build", "--family", "square", "--r", "2", "--M", "3",
        "-o", str(path),
    )
    assert rc == 0, err
    return str(path)


def test_build_writes_loadable_file(code_file):
    with open(code_file) as fh:
        obj = json.load(fh)
    assert obj["n"] == 9 and obj["M"] == 3
    assert obj["metadata"] == {"M": 3, "family": "square", "r": 2}


def test_build_to_stdout_is_deterministic(capsys):
    rc1, out1, _ = _run(capsys, "build", "--family", "square", "--r", "2", "--M", "4")
    rc2, out2, _ = _run(capsys, "build", "--family", "square", "--r", "2", "--M", "4")
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_build_with_field_override(capsys):
    rc, out, _ = _run(
        capsys, "build", "--family", "square", "--r", "2", "--M", "3",
        "--m", "6",
    )
    assert rc == 0
    assert json.loads(out)["m"] == 6


def test_distance_verb(capsys, code_file):
    assert _run_json(capsys, "distance", code_file) == {"d": 6}


def test_distance_respects_env_cap(capsys, code_file, monkeypatch):
    monkeypatch.setenv("LOCREP_SEARCH_CAP", "4")
    rc, _, err = _run(capsys, "distance", code_file)
    assert rc == 2
    assert "instance too large" in err


def test_invalid_env_cap_is_usage_error(capsys, code_file, monkeypatch):
    monkeypatch.setenv("LOCREP_SEARCH_CAP", "lots")
    rc, _, err = _run(capsys, "distance", code_file)
    assert rc == 2
    assert "LOCREP_SEARCH_CAP" in err


def test_round_trip_matches_in_memory_pipeline(capsys, code_file):
    from locrep import build_square_code, min_distance

    payload = _run_json(capsys, "distance", code_file)
    assert payload["d"] == min_distance(build_square_code(2, 3).code)


def test_phi_verb(capsys, code_file):
    payload = _run_json(capsys, "phi", code_file, "--x-max", "2")
    assert payload["phi"] == [0, 3, 5]
    assert payload["rho"] == 1
    assert payload["size_cap"] == 3  # square metadata caps sets at r+1
    assert payload["witnesses"][1] == [{"target": 1, "members": [1, 2, 3]}]


def test_rho_verb(capsys, code_file):
    assert _run_json(capsys, "rho", code_file) == {"rho": 1}


def test_bounds_square_example(capsys):
    payload = _run_json(
        capsys, "bounds", "--theorem", "square", "--n", "9", "--M", "3",
        "--r", "2",
    )
    assert payload == {"value": 6, "s": 1}


def test_bounds_general_needs_rho(capsys):
    rc, _, err = _run(capsys, "bounds", "--theorem", "general", "--n", "9", "--M", "3")
    assert rc == 2 and "rho" in err
    payload = _run_json(
        capsys, "bounds", "--theorem", "general", "--n", "9", "--M", "3",
        "--rho", "1",
    )
    assert payload == {"rho": 1, "value": 6}


def test_bounds_rdc(capsys):
    payload = _run_json(
        capsys, "bounds", "--theorem", "rdc", "--n", "16", "--M", "6",
        "--r", "3", "--delta", "3",
    )
    assert payload == {"mu": 2, "value": 9}


def test_bounds_domain_error_exit_code(capsys):
    rc, _, err = _run(
        capsys, "bounds", "--theorem", "square", "--n", "10", "--M", "3",
        "--r", "2",
    )
    assert rc == 2
    assert "(r+1)^2" in err


def test_bounds_square_rejects_alpha(capsys):
    rc, out, err = _run(
        capsys, "bounds", "--theorem", "square", "--n", "16", "--M", "6",
        "--r", "3", "--alpha", "2",
    )
    assert rc == 2 and out == ""
    assert "alpha" in err


def test_verify_locality_pass_and_fail(capsys, code_file):
    rc, out, _ = _run(
        capsys, "verify", code_file, "--locality", "2", "--delta", "3"
    )
    assert rc == 0
    assert json.loads(out)["ok"] is True
    rc, out, _ = _run(
        capsys, "verify", code_file, "--locality", "1", "--delta", "2"
    )
    assert rc == 1
    assert json.loads(out)["ok"] is False


def test_verify_optimal_square(capsys, code_file):
    rc, out, _ = _run(capsys, "verify", code_file, "--optimal-square")
    assert rc == 0
    payload = json.loads(out)
    assert payload == {"expected_d": 6, "ok": True}


def test_verify_optimal_square_needs_metadata(capsys, tmp_path, code_file):
    with open(code_file) as fh:
        obj = json.load(fh)
    del obj["metadata"]
    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps(obj))
    rc, _, err = _run(capsys, "verify", str(bare), "--optimal-square")
    assert rc == 2
    assert "square metadata" in err


def test_verify_requires_a_mode(capsys, code_file):
    rc, _, err = _run(capsys, "verify", code_file)
    assert rc == 2


def test_repair_verb(capsys, code_file):
    payload = _run_json(
        capsys, "repair", code_file, "--erase", "1,2", "--cap", "2"
    )
    assert payload["steps"][0] == {
        "target": 1,
        "members": [1, 4, 7],
        "coefficients": ["1", "1"],
    }
    assert [s["target"] for s in payload["steps"]] == [1, 2]


def test_repair_unrepairable_exit_code(capsys, code_file):
    rc, _, err = _run(
        capsys, "repair", code_file, "--erase", "1,2,3,4,5,6,7", "--cap", "1"
    )
    assert rc == 2
    assert "unrepairable" in err


def test_repair_bad_erase_list(capsys, code_file):
    rc, _, err = _run(capsys, "repair", code_file, "--erase", "1,x", "--cap", "2")
    assert rc == 2


def test_table_verb(capsys):
    rc, out, _ = _run(capsys, "table", "--r", "5")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "M,bound_square,bound_rdc"
    assert len(lines) == 21
    first = lines[1].split(",")
    assert first[0] == "6"


def test_table_to_file(capsys, tmp_path):
    target = tmp_path / "fig.csv"
    rc, out, _ = _run(capsys, "table", "--r", "2", "-o", str(target))
    assert rc == 0 and out == ""
    assert target.read_text().startswith("M,bound_square,bound_rdc\n")


def test_unknown_flag_rejected(capsys, code_file):
    with pytest.raises(SystemExit) as exc:
        main(["distance", code_file, "--bogus"])
    assert exc.value.code == 2


def test_missing_file_is_reported(capsys):
    rc, _, err = _run(capsys, "distance", "/nonexistent/code.json")
    assert rc == 2
    assert "error" in err


def test_identical_invocations_byte_identical(capsys, code_file):
    _, out1, _ = _run(capsys, "phi", code_file, "--x-max", "2")
    _, out2, _ = _run(capsys, "phi", code_file, "--x-max", "2")
    assert out1 == out2


@pytest.fixture()
def repetition_file(tmp_path):
    from locrep.linear_code import dumps
    from oracles import repetition_code

    path = tmp_path / "repetition.json"
    path.write_text(dumps(repetition_code()))
    return str(path)


def test_distance_on_repetition_code(capsys, repetition_file):
    assert _run_json(capsys, "distance", repetition_file) == {"d": 3}


def test_phi_without_metadata_uses_uncapped_sets(capsys, repetition_file):
    payload = _run_json(capsys, "phi", repetition_file, "--x-max", "2")
    assert payload["phi"] == [0, 2, 3]
    assert payload["rho"] == 0
    assert payload["size_cap"] == 3  # defaults to n when nothing is declared


def test_optimal_square_refuses_beyond_brute_force(capsys, tmp_path):
    path = tmp_path / "r4.json"
    rc, _, err = _run(
        capsys, "build", "--family", "square", "--r", "4", "--M", "5",
        "-o", str(path),
    )
    assert rc == 0, err
    rc, _, err = _run(capsys, "verify", str(path), "--optimal-square")
    assert rc == 2
    assert "instance too large" in err


@pytest.mark.parametrize("r, M", [(7, 8), (8, 9)])
def test_build_reaches_degree_49_and_64_fields(capsys, tmp_path, r, M):
    # the field degree is r^2; finding its modulus must take polynomial time
    path = tmp_path / f"r{r}.json"
    default_modulus.cache_clear()  # pay the modulus search, as a fresh process does
    start = time.perf_counter()
    rc, _, err = _run(
        capsys, "build", "--family", "square", "--r", str(r), "--M", str(M),
        "-o", str(path),
    )
    elapsed = time.perf_counter() - start
    assert rc == 0, err
    assert elapsed < 5.0, f"took {elapsed:.2f}s, budget 5s"
    code, metadata = loads(path.read_text())
    assert code.field.degree == r * r
    assert metadata == {"M": M, "family": "square", "r": r}
    sc = SquareCode(r=r, M=M, field=code.field, betas=(), code=code)
    assert verify_grid_relations(sc)


def _without_r(obj):
    del obj["metadata"]["r"]


@pytest.mark.parametrize(
    "verb, edit",
    [
        ("distance", lambda obj: obj.update(m=4.0)),
        ("distance", lambda obj: obj.update(n=9.0)),
        ("distance", lambda obj: obj.update(M=True)),
        ("distance", lambda obj: obj.update(q=2.0)),
        ("distance", lambda obj: obj.update(q="2")),
        ("distance", lambda obj: obj.update(columns=5)),
        ("phi", lambda obj: obj.update(columns=5)),
        ("phi", lambda obj: obj.update(columns=[5] * 9)),
        ("phi", lambda obj: obj.update(metadata=5)),
        ("phi", lambda obj: obj["metadata"].update(r="two")),
        ("phi", lambda obj: obj["metadata"].update(M=3.0)),
        ("phi", _without_r),
    ],
    ids=[
        "m-float", "n-float", "M-bool", "q-float", "q-str", "columns-int",
        "phi-columns-int", "columns-not-lists", "metadata-int",
        "metadata-r-str", "metadata-M-float", "metadata-r-missing",
    ],
)
def test_malformed_code_file_is_domain_error(capsys, tmp_path, code_file, verb, edit):
    with open(code_file) as fh:
        obj = json.load(fh)
    edit(obj)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    argv = [verb, str(path)] + (["--x-max", "2"] if verb == "phi" else [])
    rc, out, err = _run(capsys, *argv)
    assert rc == 2
    assert out == ""
    assert err.startswith("error: malformed code file")


def test_huge_field_degree_in_code_file_is_rejected_fast(capsys, tmp_path, code_file):
    # Rabin's test on a degree-20000 modulus would take minutes
    with open(code_file) as fh:
        obj = json.load(fh)
    obj["m"] = 20000
    obj["modulus_hex"] = format((1 << 20000) | 0b1011, "x")
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(obj))
    start = time.perf_counter()
    rc, out, err = _run(capsys, "distance", str(path))
    elapsed = time.perf_counter() - start
    assert rc == 2 and out == ""
    assert "field degree" in err
    assert elapsed < 1.0, f"took {elapsed:.2f}s"


@pytest.mark.parametrize(
    "extra", [["--r", "2", "--M", "3", "--m", "513"], ["--r", "23", "--M", "24"]],
    ids=["m-override", "r-squared"],
)
def test_build_rejects_field_degree_above_bound(capsys, extra):
    rc, out, err = _run(capsys, "build", "--family", "square", *extra)
    assert rc == 2 and out == ""
    assert "field degree" in err
