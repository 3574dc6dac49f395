"""Internal invariants raise a typed error that ``python -O`` keeps."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import locrep
from locrep import InvariantError, LocrepError, RegeneratingSet, square
from locrep.cli import main
from locrep.regsets import _check_union_not_exhaustive
from locrep.repair import _solve_step

PACKAGE_DIR = Path(locrep.__file__).parent


def test_invariant_error_is_a_locrep_error():
    assert issubclass(InvariantError, LocrepError)
    assert "InvariantError" in locrep.__all__


@pytest.mark.parametrize(
    "path", sorted(PACKAGE_DIR.glob("*.py")), ids=lambda p: p.name
)
def test_no_assert_in_package(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        assert not isinstance(node, ast.Assert), f"{path.name}:{node.lineno}"
        if isinstance(node, ast.Name):
            assert node.id != "AssertionError", f"{path.name}:{node.lineno}"


def test_exhaustive_union_below_rho_is_an_invariant_error(square_r2_m3):
    code = square_r2_m3.code
    everything = frozenset(range(1, code.n + 1))
    with pytest.raises(InvariantError):
        _check_union_not_exhaustive(code, [RegeneratingSet(1, everything)])


def test_repair_step_from_a_non_regenerating_set_is_an_invariant_error(
    square_r2_m3,
):
    # coordinates 1 and 2 share a grid row but do not determine each other
    with pytest.raises(InvariantError):
        _solve_step(square_r2_m3.code, 1, frozenset({1, 2}))


def test_cli_lets_an_invariant_error_escape(monkeypatch):
    # exit code 2 is for bad input; a defect keeps its traceback
    def broken(*args, **kwargs):
        raise InvariantError("broken construction")

    monkeypatch.setattr(square, "build_square_code", broken)
    with pytest.raises(InvariantError):
        main(["build", "--family", "square", "--r", "2", "--M", "3"])
