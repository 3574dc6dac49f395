"""Command-line interface: verbs, exit codes, payloads, determinism."""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

import pytest

from locrep import (
    GF2m,
    LinearCode,
    bound_square,
    cli,
    default_modulus,
    verify_grid_relations,
)
from locrep.cli import main
from locrep.linear_code import dumps, loads
from locrep.square import SquareCode
from oracles import mismatched_square_files, repetition_code, square_phi

# Frozen bytes of the CLI from before the one-verb parser, on one Python
FROZEN = json.loads((Path(__file__).parent / "cli_bytes.json").read_text())
_VERB_HEADS = [[verb] for verb in cli._VERBS]


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


@pytest.mark.parametrize("verb", [["distance"], ["phi", "--x-max", "2"], ["rho"]])
@pytest.mark.parametrize("raw", ["0", "-3"])
def test_env_cap_below_one_is_usage_error(capsys, code_file, monkeypatch, verb, raw):
    # a cap below 1 is malformed, not a cap the instance happens to exceed
    monkeypatch.setenv("LOCREP_SEARCH_CAP", raw)
    rc, out, err = _run(capsys, verb[0], code_file, *verb[1:])
    assert rc == 2 and out == ""
    assert f"LOCREP_SEARCH_CAP must be a positive integer, got '{raw}'" in err
    assert "exceeds" not in err


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
    assert "square code r=2 needs n=9, got n=10" in err


def test_bounds_square_rejects_alpha(capsys):
    rc, out, err = _run(
        capsys, "bounds", "--theorem", "square", "--n", "16", "--M", "6",
        "--r", "3", "--alpha", "2",
    )
    assert rc == 2 and out == ""
    assert "alpha" in err


def test_bounds_rejects_a_parameter_the_theorem_does_not_take(capsys):
    # --rho belongs to the general theorem only; it is not dropped
    rc, out, err = _run(
        capsys, "bounds", "--theorem", "square", "--n", "16", "--M", "6",
        "--r", "3", "--rho", "2",
    )
    assert rc == 2 and out == ""
    assert "does not take rho" in err


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


def test_verify_optimal_square_refuses_a_tampered_file(capsys, tmp_path, code_file):
    # two swapped columns keep the declared shape, not the construction
    with open(code_file) as fh:
        obj = json.load(fh)
    obj["columns"][0], obj["columns"][1] = obj["columns"][1], obj["columns"][0]
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(obj))
    rc, out, err = _run(capsys, "verify", str(tampered), "--optimal-square")
    assert rc == 2
    assert out == ""
    assert "does not match the square construction" in err


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


def test_repair_beyond_the_length_gate_exit_code(capsys, tmp_path):
    path = tmp_path / "rep26.json"
    path.write_text(dumps(repetition_code(26)))
    rc, out, err = _run(capsys, "repair", str(path), "--erase", "1", "--cap", "1")
    assert rc == 2 and out == ""
    assert "n=26" in err


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


@pytest.mark.parametrize(
    "r, M, calls",
    [
        # the capped answers (square metadata), the exact phi (a bare
        # copy) and the distance, whose last flat-search pushes multiply
        (3, 5, [("phi", "--x-max", "3"), ("rho",), ("bare", "phi", "--x-max", "2"),
                ("distance",)]),
        # 2M >= n: H's flats; a fresh GF(2^16) answers within its
        # tableless allowance, so its cold path meets the tableless one
        (4, 16, [("distance",), ("verify", "--optimal-square")]),
    ],
)
def test_a_tableless_field_prints_the_same_bytes(
    capsys, tmp_path, monkeypatch, r, M, calls
):
    # the same grid over GF(2^17), which never has log tables, so every
    # push, scale and line key multiplies; the matroid depends only on
    # the GF(2) relations among the cells, so every answer matches the
    # default field's byte for byte.  Each call loads its file into a
    # fresh field, as a new process does
    monkeypatch.setenv("LOCREP_SEARCH_CAP", "25")
    outputs = []
    for m in ([], ["--m", "17"]):
        path = tmp_path / f"square{''.join(m)}.json"
        rc, _, err = _run(capsys, "build", "--family", "square", "--r", str(r),
                          "--M", str(M), *m, "-o", str(path))
        assert rc == 0, err
        obj = json.loads(path.read_text())
        del obj["metadata"]
        bare = tmp_path / f"bare{''.join(m)}.json"
        bare.write_text(json.dumps(obj))
        printed = []
        for call in calls:
            if call[0] == "bare":
                argv = [call[1], str(bare), *call[2:]]
            else:
                argv = [call[0], str(path), *call[1:]]
            rc, out, err = _run(capsys, *argv)
            assert rc == 0, err
            printed.append(out)
        outputs.append(printed)
    assert outputs[0] == outputs[1]


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


def _first_symbol(value):
    def edit(obj):
        obj["columns"][0][0] = value

    return edit


def _without_columns(obj):
    del obj["columns"]


@pytest.mark.parametrize(
    "verb, edit",
    [
        ("distance", _first_symbol("zz")),
        ("distance", _first_symbol("-1")),
        ("distance", _first_symbol(5)),
        ("distance", _first_symbol("10")),
        ("distance", lambda obj: obj.update(modulus_hex="x13")),
        ("distance", lambda obj: obj["columns"].pop()),
        ("distance", lambda obj: obj["columns"][0].pop()),
        ("distance", _without_columns),
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
        "symbol-not-hex", "symbol-negative", "symbol-not-str",
        "symbol-outside-field", "modulus-not-hex", "columns-n-minus-1",
        "column-ragged", "columns-missing",
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


@pytest.mark.parametrize(
    "edit, message",
    [
        ({"modulus_hex": "15"}, "modulus 0x15 is reducible over GF(2)"),
        ({"m": 0}, "field degree must be an integer in 1..512, got 0"),
        ({"q": 3}, "only base field GF(2) is supported, got q=3"),
    ],
    ids=["modulus-reducible", "m-out-of-range", "q-not-2"],
)
def test_field_defects_are_malformed_code_files(
    capsys, tmp_path, code_file, edit, message
):
    # the field is built inside the reader's error wrapping, like the
    # symbols: z^4 + z^2 + 1 is (z^2 + z + 1)^2
    with open(code_file) as fh:
        obj = json.load(fh)
    obj.update(edit)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    rc, out, err = _run(capsys, "distance", str(path))
    assert (rc, out) == (2, "")
    assert err == f"error: malformed code file: {message}\n"


@pytest.mark.parametrize(
    "content, message",
    [
        # an executable's header
        (b"\x7fELF\x02\x01\x01\x00" + bytes(range(128, 256)),
         "'utf-8' codec can't decode"),
        # the JSON decoder recurses once per bracket
        (b"[" * 200_000, "JSON nested too deeply"),
        # past the interpreter's digit limit for int(), where it has one
        (b'{"n": 1' + b"0" * 5000 + b"}", ""),
    ],
    ids=["not-utf8", "nested", "huge-integer"],
)
def test_a_code_file_the_reader_cannot_decode_is_malformed(
    capsys, tmp_path, content, message
):
    # not exit 1, which means a verification returned false, and no traceback
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    rc, out, err = _run(capsys, "distance", str(path))
    assert (rc, out) == (2, "")
    assert err.startswith(f"error: malformed code file: {message}")


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


@pytest.mark.parametrize("case", sorted(mismatched_square_files()))
@pytest.mark.parametrize("verb", ["phi", "rho", "distance"])
def test_square_metadata_that_does_not_fit_is_domain_error(capsys, tmp_path, verb, case):
    path = tmp_path / "bad.json"
    path.write_text(mismatched_square_files()[case])
    argv = [verb, str(path)] + (["--x-max", "2"] if verb == "phi" else [])
    rc, out, err = _run(capsys, *argv)
    assert rc == 2 and out == ""
    assert err.startswith("error: malformed code file: square metadata")


def _exit_and_output(capsys, call):
    """(exit code, stdout, stderr) of a call that may exit through argparse."""
    try:
        code = call()
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.skipif(
    list(sys.version_info[:2]) != FROZEN["python"],
    reason="argparse wording differs between Python versions",
)
@pytest.mark.parametrize("case", sorted(FROZEN["calls"]))
def test_cli_bytes_match_the_frozen_ones(capsys, monkeypatch, case):
    monkeypatch.setenv("COLUMNS", "80")
    frozen = FROZEN["calls"][case]
    got = _exit_and_output(capsys, lambda: main(list(frozen["argv"])))
    assert got == (frozen["exit"], frozen["stdout"], frozen["stderr"])


@pytest.mark.parametrize(
    "case",
    sorted(c for c, call in FROZEN["calls"].items() if call["argv"][:1] in _VERB_HEADS),
)
def test_one_verb_parser_prints_what_the_full_parser_prints(capsys, monkeypatch, case):
    # holds on every Python version, where the frozen bytes may not
    monkeypatch.setenv("COLUMNS", "80")
    argv = FROZEN["calls"][case]["argv"]
    one = _exit_and_output(capsys, lambda: cli._build_parser(argv[0]).parse_args(argv))
    full = _exit_and_output(capsys, lambda: cli._build_parser().parse_args(argv))
    assert one == full
    assert one[0] in (0, 2)


def _verbs_registered(parser):
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return list(sub.choices)


def test_a_named_verb_gets_only_its_own_subparser():
    for verb in cli._VERBS:
        assert _verbs_registered(cli._build_parser(verb)) == [verb]
    # anything else parses against every verb
    for first in (None, "-h", "--help", "bogus", "--", "-o"):
        assert _verbs_registered(cli._build_parser(first)) == list(cli._VERBS)


def test_main_reads_sys_argv_when_given_none(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["locrep", "table", "--r", "2"])
    assert main() == 0
    out = capsys.readouterr().out
    assert out.startswith("M,bound_square,bound_rdc\n")


def test_built_files_match_the_frozen_ones(capsys):
    for args, digest in FROZEN["build_sha256"].items():
        rc, out, err = _run(capsys, "build", "--family", "square", *args.split())
        assert rc == 0, err
        assert hashlib.sha256(out.encode()).hexdigest() == digest, args


@pytest.mark.parametrize("M", ["5", "6"])
def test_build_fills_no_field_tables(capsys, monkeypatch, M):
    def refuse(field):
        raise AssertionError(f"{field!r} filled its log tables")

    monkeypatch.setattr(GF2m, "_build_tables", refuse)
    rc, out, err = _run(capsys, "build", "--family", "square", "--r", "4", "--M", M)
    assert rc == 0, err
    assert json.loads(out)["m"] == 16


# The console smoke checks, in process: each call loads its file into a
# fresh field, as a new process does


@pytest.fixture()
def square_r3_file(tmp_path, capsys):
    path = tmp_path / "square_r3.json"
    rc, _, err = _run(
        capsys, "build", "--family", "square", "--r", "3", "--M", "5",
        "-o", str(path),
    )
    assert rc == 0, err
    return str(path)


def test_square_r3_capped_answers_and_locality(capsys, square_r3_file):
    # the square metadata caps sets at r + 1 = 4, so these run the
    # cap-4 circuit scan; delta = 5 asks for 3 extra erasures, and a
    # square code tolerates 2
    payload = _run_json(capsys, "phi", square_r3_file, "--x-max", "3")
    assert payload["phi"] == [0, 4, 7, 10]
    assert (payload["rho"], payload["size_cap"]) == (1, 4)
    assert _run_json(capsys, "rho", square_r3_file) == {"rho": 1}
    for delta, rc in (("3", 0), ("5", 1)):
        status, out, err = _run(
            capsys, "verify", square_r3_file, "--locality", "3", "--delta", delta
        )
        assert status == rc, err
        assert json.loads(out)["ok"] is (rc == 0)


def test_square_r3_repair_from_a_grid_column(capsys, square_r3_file):
    # cell 1 shares its grid row with cell 2, so it is rebuilt from its
    # grid column; with the 2x2 block 1, 2, 5, 6 erased no cell keeps a
    # clear row or column
    payload = _run_json(
        capsys, "repair", square_r3_file, "--erase", "1,2", "--cap", "3"
    )
    step = payload["steps"][0]
    assert (step["target"], step["members"]) == (1, [1, 5, 9, 13])
    rc, out, err = _run(
        capsys, "repair", square_r3_file, "--erase", "1,2,5,6", "--cap", "3"
    )
    assert (rc, out) == (2, "")
    assert "unrepairable" in err


@pytest.mark.parametrize(
    "theorem, flags, expected",
    [
        ("general", ["--rho", "2"], {"value": 9, "rho": 2}),
        ("locality_r", ["--r", "3"], {"value": 10, "rho_lower": 1}),
        ("lrc", ["--r", "3", "--delta", "3"], {"value": 9, "rho_lower": 2}),
        ("square", ["--r", "3"], {"value": 9, "s": 2}),
    ],
    ids=["general", "locality_r", "lrc", "square"],
)
def test_every_theorem_on_the_benchmark_arguments(capsys, theorem, flags, expected):
    # the value and the rho floor, nothing else; rdc is test_bounds_rdc
    payload = _run_json(
        capsys, "bounds", "--theorem", theorem, "--n", "16", "--M", "6", *flags
    )
    assert payload == expected


def test_reed_solomon_tolerance_is_d_minus_one(capsys, tmp_path):
    # [15, 4] over GF(16): every 5-set is a circuit, so at r = 4 the cap
    # prunes none and the tolerance is d - 1 = 11
    field = GF2m(4)
    code = LinearCode(
        field, 15, 4, [[field.pow(x, i) for i in range(4)] for x in range(1, 16)]
    )
    path = tmp_path / "rs.json"
    path.write_text(dumps(code))
    for delta, rc in (("12", 0), ("13", 1)):
        status, out, err = _run(
            capsys, "verify", str(path), "--locality", "4", "--delta", delta
        )
        assert status == rc, err
        assert json.loads(out)["ok"] is (rc == 0)


def test_verb_help_and_an_unknown_verb(capsys):
    # on every Python version, where the frozen bytes may not hold
    assert _exit_and_output(capsys, lambda: main(["phi", "--help"]))[0] == 0
    rc, out, _ = _exit_and_output(capsys, lambda: main(["bogus"]))
    assert (rc, out) == (2, "")


@pytest.mark.parametrize("M", [5, 16])
def test_square_r4_exact_answers_from_a_fresh_load(capsys, tmp_path, monkeypatch, M):
    # built without log tables and read back; at M = 16, 2M >= n, so the
    # exact answers come from the parity-check code's flats, and a bare
    # copy (no metadata) has exact phi and rho
    monkeypatch.setenv("LOCREP_SEARCH_CAP", "25")
    path = tmp_path / "square_r4.json"
    rc, _, err = _run(
        capsys, "build", "--family", "square", "--r", "4", "--M", str(M),
        "-o", str(path),
    )
    assert rc == 0, err
    d = bound_square(25, M, 4)
    assert _run_json(capsys, "distance", str(path)) == {"d": d}
    obj = json.loads(path.read_text())
    del obj["metadata"]
    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps(obj))
    assert _run_json(capsys, "rho", str(bare)) == {"rho": 25 - M + 1 - d}
    payload = _run_json(capsys, "phi", str(bare), "--x-max", "3")
    assert payload["phi"] == [0] + [square_phi(4, M, x) for x in (1, 2, 3)]
