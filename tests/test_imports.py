"""The lazy package namespace and the per-subcommand imports of the CLI.

Each pin runs in a fresh interpreter and compares the exact set of
``gkhopf`` modules loaded after one statement.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gkhopf

SRC = Path(__file__).resolve().parents[1] / "src"

# the public names, by home module, that the package exported when it imported every module
PUBLIC = {
    "classify": ["IsoWitness", "a_family_iso", "ext_vanishes", "gldim_finite", "invariant_set",
                 "is_domain", "iso_test"],
    "heckenberger": ["BraidingMatrix", "DiagonalDatum", "NicholsVerdict", "lemma41_case", "omega_checks",
                     "prop42_case", "remark43_finite", "supplementary_type"],
    "hopfops": ["AxiomReport", "PrimitiveSpaceReport", "SkewPrimitiveRecord", "TensorPoly",
                "ZeroDivisorReport", "antipode", "check_hopf_axioms", "coproduct", "counit",
                "ext1_dimension", "find_zero_divisors", "skew_primitives",
                "tensor_of", "weight_commutator"],
    "ncpoly": ["Ambiguity", "ConfluenceReport", "NCPoly", "NFMonomial", "RewriteSystem", "Rule",
               "certify_confluence", "enumerate_ambiguities", "multiply", "normal_form", "power"],
    "presentations": ["AParams", "BFormResult", "BParams", "BuiltPresentation", "CParams",
                      "HopfPresentation", "KParams", "ValidationReport", "build", "to_b_form", "validate"],
    "scalars": ["Cyclo", "RootOfUnity", "is_primitive_pth_root", "make_root", "nth_root_in_cyclotomics",
                "order_of", "qbinom"],
}
BASE = {"gkhopf", "gkhopf.cli", "gkhopf.presentations", "gkhopf.ncpoly", "gkhopf.scalars"}
B25 = {"family": "B", "n": 1, "p": [2, 5], "q": {"L": 10, "k": 3}, "alpha": [0, 2]}
NICHOLS = {"data": [{"n1": 1, "n2": 1, "q1": {"L": 5, "k": 1}, "q2": {"L": 5, "k": 4}, "epsilon": 5}]}


def _modules_after(statement: str) -> set:
    """The ``gkhopf`` modules in ``sys.modules`` after ``statement`` runs in a fresh interpreter."""
    script = (f"import contextlib, io, json, sys\n"
              f"with contextlib.redirect_stdout(io.StringIO()):\n    {statement}\n"
              f"print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'gkhopf')))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
    return set(json.loads(out.stdout))


def test_import_gkhopf_runs_no_submodule():
    assert _modules_after("import gkhopf") == {"gkhopf"}


def test_importing_submodules_loads_only_them():
    assert _modules_after("from gkhopf import ncpoly, presentations, scalars") == {
        "gkhopf", "gkhopf.ncpoly", "gkhopf.presentations", "gkhopf.scalars"}


def test_every_public_name_imports_in_a_fresh_interpreter():
    names = ", ".join(name for names in PUBLIC.values() for name in names)
    assert _modules_after(f"from gkhopf import {names}") == {
        "gkhopf", "gkhopf._linalg", *(f"gkhopf.{module}" for module in PUBLIC)}


def test_nichols_loads_heckenberger_only(tmp_path):
    path = tmp_path / "batch.json"
    path.write_text(json.dumps(NICHOLS))
    loaded = _modules_after(f"from gkhopf import cli; assert cli.main({['nichols', str(path)]!r}) == 0")
    assert loaded == BASE | {"gkhopf.heckenberger"}


def test_hopf_check_loads_hopfops_and_linalg_only(tmp_path):
    path = tmp_path / "b25.json"
    path.write_text(json.dumps(B25))
    argv = ["hopf-check", str(path), "--cap", "2"]
    loaded = _modules_after(f"from gkhopf import cli; assert cli.main({argv!r}) == 0")
    assert loaded == BASE | {"gkhopf.hopfops", "gkhopf._linalg"}


@pytest.mark.parametrize("command, options, code", [("primitives", ["--weight", "2"], 0), ("zerodiv", [], 1)])
def test_primitives_and_zerodiv_load_no_expr(tmp_path, command, options, code):
    # their reports print polynomials through RewriteSystem.format_poly
    path = tmp_path / "b25.json"
    path.write_text(json.dumps(B25))
    argv = [command, str(path), "--cap", "2", *options]
    loaded = _modules_after(f"from gkhopf import cli; assert cli.main({argv!r}) == {code}")
    assert loaded == BASE | {"gkhopf.hopfops", "gkhopf._linalg"}


def test_public_names_resolve_to_their_home_modules():
    assert sorted(gkhopf.__all__) == sorted(name for names in PUBLIC.values() for name in names)
    listed = dir(gkhopf)
    for module, names in PUBLIC.items():
        home = importlib.import_module(f"gkhopf.{module}")
        assert getattr(gkhopf, module) is home
        for name in names:
            assert getattr(gkhopf, name) is getattr(home, name)
            assert name in listed
    with pytest.raises(AttributeError, match="no_such_name"):
        gkhopf.no_such_name
    with pytest.raises(ImportError):
        from gkhopf import no_such_name  # noqa: F401
