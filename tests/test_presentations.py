"""Parameter validation, base-form recovery, coalgebra tables, JSON schema."""

import pytest

from gkhopf.ncpoly import NFMonomial
from gkhopf import presentations
from gkhopf.presentations import (BParams, HopfPresentation, KParams, build,
                                  presentation_from_json, root_from_json, scalar_from_json,
                                  to_b_form, validate)
from gkhopf.scalars import CONDUCTOR_LIMIT, Cyclo, RootOfUnity, make_root

from helpers import b_grid, built_b, k_grid, search_k_instances


def test_validate_good_instance():
    params = BParams.make(1, (2, 3), make_root(6, 1), (0, 1)).expand()
    assert params.n == (3, 2) and params.M == 6
    report = validate(params)
    assert report.ok and all(report.flags.values())


def test_validate_noncoprime_paper_instance():
    q = make_root(30, 1)
    params = KParams.make(30, (3, 2), (10, 15), [q ** 3, q ** -2], (0, 1))
    report = validate(params)
    assert report.ok
    for name in ("sizes", "degree_split", "q_nonzero", "q_primitive", "q_cross"):
        assert report.flags[name]
    assert not report.flags["p_coprime"]


def test_validate_equal_alpha():
    params = BParams.make(1, (2, 3), make_root(6, 1), (5, 5)).expand()
    assert not validate(params).flags["alpha_separated"]


def test_validate_failures_flagged():
    bad = KParams.make(6, (3, 2), (2, 3), [Cyclo.one(), make_root(3, 1)], (0, 1))
    report = validate(bad)
    assert not report.flags["q_primitive"] and not report.ok


def test_to_b_form_unique_candidate():
    params = BParams.make(1, (2, 3), make_root(6, 1), (0, 1)).expand()
    result = to_b_form(params)
    assert result is not None
    assert result.bparams.p == (2, 3) and result.bparams.n == 1
    assert result.bparams.q == make_root(6, 1)
    # k = 1 is the one unit mod 6 with q^3 = -1 and q^2 = zeta_3
    assert result.base_exponents == [1]


def test_to_b_form_other_branch():
    # q = (-1, zeta_3^2) forces the other primitive 6th root
    params = KParams.make(6, (3, 2), (2, 3),
                          [Cyclo.from_rational(-1), make_root(3, 2)], (0, 1))
    result = to_b_form(params)
    assert result is not None and result.bparams.q == make_root(6, 5)


def test_to_b_form_noncoprime_absent():
    q = make_root(30, 1)
    params = KParams.make(30, (3, 2), (10, 15), [q ** 3, q ** -2], (0, 1))
    assert to_b_form(params) is None


def test_to_b_form_refuses_trivial_p():
    # coprime, primitive and cross-consistent, but p_1 = 1 is no B-form
    params = KParams.make(2, (2, 1), (1, 2), [Cyclo.one(), Cyclo.from_rational(-1)], (0, 1))
    with pytest.raises(ValueError, match="structural validation: p_nontrivial"):
        to_b_form(params)
    assert validate(params).structural_failures == ["p_nontrivial"]


def test_to_b_form_sorts_p():
    params = BParams.make(1, (2, 3), make_root(6, 1), (0, 1)).expand()
    shuffled = KParams.make(params.M, params.n[::-1], params.p[::-1],
                            params.q[::-1], params.alpha[::-1])
    result = to_b_form(shuffled)
    assert result is not None
    assert result.bparams.p == (2, 3)
    assert result.permutation == (1, 0)
    assert result.bparams.alpha == (params.alpha[0], params.alpha[1])


def test_round_trip_b_to_k(b23):
    for b in b_grid():
        expanded = b.expand()
        result = to_b_form(expanded)
        assert result is not None
        again = result.bparams.expand()
        assert again.p == expanded.p and again.M == expanded.M
        assert again.q == expanded.q and again.alpha == expanded.alpha


def test_cross_condition_consistency():
    for params in k_grid():
        report = validate(params)
        if not report.ok:
            continue
        for i in range(params.s):
            for j in range(i + 1, params.s):
                assert params.q[j] ** params.n[i] * params.q[i] ** params.n[j] == Cyclo.one()


def test_coalgebra_tables_independent_of_alpha():
    one = build(HopfPresentation.from_b(BParams.make(1, (2, 3), make_root(6, 1), (0, 1))))
    zero = build(HopfPresentation.from_b(BParams.make(1, (2, 3), make_root(6, 1), (0, 0))))
    assert one.coproducts == zero.coproducts
    assert one.counits == zero.counits
    assert [p.terms for p in one.antipodes] == [p.terms for p in zero.antipodes]


def test_coalgebra_table_pins(b23, a25, c3):
    one = Cyclo.one()
    # Delta(y1) = y1 (x) 1 + x^3 (x) y1
    assert b23.coproducts[2] == ((one, NFMonomial(0, (1, 0)), NFMonomial(0, (0, 0))),
                                 (one, NFMonomial(3, (0, 0)), NFMonomial(0, (1, 0))))
    assert b23.coproducts[3] == ((one, NFMonomial(0, (0, 1)), NFMonomial(0, (0, 0))),
                                 (one, NFMonomial(2, (0, 0)), NFMonomial(0, (0, 1))))
    assert b23.antipodes[2].terms == {NFMonomial(-3, (1, 0)): Cyclo.from_rational(-1)}
    # A(2, q): Delta(y) = y (x) 1 + x^2 (x) y
    assert a25.coproducts[2] == ((one, NFMonomial(0, (1,)), NFMonomial(0, (0,))),
                                 (one, NFMonomial(2, (0,)), NFMonomial(0, (1,))))
    # C(3): Delta(y) = y (x) y and Delta(x) = x (x) y^2 + 1 (x) x
    assert c3.coproducts[1] == ((one, NFMonomial(1, (0,)), NFMonomial(1, (0,))),)
    assert c3.coproducts[2] == ((one, NFMonomial(0, (1,)), NFMonomial(2, (0,))),
                                (one, NFMonomial(0, (0,)), NFMonomial(0, (1,))))


def test_search_helper_finds_paper_instance():
    hits = search_k_instances((10, 15), 30, (0, 1), limit=3)
    assert hits
    for params in hits:
        assert validate(params).ok


def test_json_round_trip():
    data = {"family": "B", "n": 1, "p": [2, 3], "q": {"L": 6, "k": 1}, "alpha": [0, 1]}
    pres = presentation_from_json(data)
    assert pres.family == "B" and pres.kparams.M == 6
    data = {"family": "K", "s": 2, "M": 2, "n": [1, 1], "p": [2, 2],
            "q": [{"L": 2, "k": 1}, {"L": 2, "k": 1}], "alpha": [0, 1]}
    pres = presentation_from_json(data)
    assert pres.kparams.q[0] == Cyclo.from_rational(-1)
    pres = presentation_from_json({"family": "A", "n": 2, "q": {"L": 5, "k": 1}})
    assert pres.aparams.n == 2
    pres = presentation_from_json({"family": "C", "n": 3})
    assert pres.cparams.n == 3
    with pytest.raises(ValueError):
        presentation_from_json({"family": "X"})


def test_scalar_from_json_pins():
    from fractions import Fraction

    assert scalar_from_json({"L": 6, "poly": [[0, 1], [1, 1]]}) == make_root(6, 1)
    assert scalar_from_json({"L": 1, "poly": [[-3, 1]]}) == Cyclo.from_rational(-3)
    assert scalar_from_json({"L": 5, "poly": [[2, 1], [0, 1], [1, 1]]}) == make_root(5, 2) + 2
    # 1 + zeta_3 = -zeta_3^2 = zeta_6, and a constant at L = 4 descends to Q
    assert scalar_from_json({"L": 3, "poly": [[1, 1], [1, 1]]}) == make_root(6, 1)
    assert scalar_from_json({"L": 4, "poly": [[1, 2]]}) == Cyclo.from_rational(Fraction(1, 2))
    assert scalar_from_json("2/3") == Cyclo.from_rational(Fraction(2, 3))
    assert scalar_from_json([1, 2]) == Cyclo.from_rational(Fraction(1, 2))


def test_root_from_json_reads_exponents():
    for L in range(1, CONDUCTOR_LIMIT + 1):
        for k in (-L - 1, -1, 0, 1, L - 1, L, 2 * L + 3):
            obj = {"L": L, "k": k}
            assert root_from_json(obj) == RootOfUnity.from_cyclo(scalar_from_json(obj)), obj


@pytest.mark.parametrize("obj", [1, -1, "-1", [-1, 1], {"L": 3, "poly": [[1, 1], [1, 1]]},
                                 {"L": 4, "poly": [[0, 1], [1, 1]], "k": 3}])
def test_root_from_json_other_scalars_take_the_scalar_route(monkeypatch, obj):
    seen = []

    def spy(value):
        seen.append(value)
        return scalar_from_json(value)

    monkeypatch.setattr(presentations, "scalar_from_json", spy)
    assert root_from_json(obj) == RootOfUnity.from_cyclo(scalar_from_json(obj))
    assert seen == [obj]


def test_root_from_json_no_scalar_route_for_exponents(monkeypatch):
    monkeypatch.setattr(presentations, "scalar_from_json", None)
    assert root_from_json({"L": 12, "k": 9}) == RootOfUnity(4, 3)


@pytest.mark.parametrize("obj", [2, "1/2", {"L": 5, "poly": [[2, 1]]}, {"L": 0, "k": 1},
                                 {"L": CONDUCTOR_LIMIT + 1, "k": 1}, {"L": True, "k": 1},
                                 {"L": 5, "k": 1.0}, {"L": 5, "k": "1"}, {"k": 1}])
def test_root_from_json_refusals(obj):
    with pytest.raises((ValueError, KeyError)) as root_exc:
        root_from_json(obj)
    try:
        RootOfUnity.from_cyclo(scalar_from_json(obj))
    except (ValueError, KeyError) as exc:
        assert (type(exc), str(exc)) == (root_exc.type, str(root_exc.value))
    else:
        raise AssertionError(f"{obj!r} was read")
    with pytest.raises(root_exc.type) as pair_exc:
        presentations.root_pair_from_json(obj)
    assert str(pair_exc.value) == str(root_exc.value)


@pytest.mark.parametrize("obj", [1, -1, "-1", [-1, 1], {"L": 3, "poly": [[1, 1], [1, 1]]},
                                 {"L": 4, "poly": [[0, 1], [1, 1]], "k": 3}])
def test_root_pair_from_json_other_scalars(obj):
    assert RootOfUnity(*presentations.root_pair_from_json(obj)) == root_from_json(obj)


def test_root_pair_from_json_keeps_exponents():
    for L in range(1, CONDUCTOR_LIMIT + 1):
        for k in (-L - 1, -1, 0, 1, L - 1, L, 2 * L + 3):
            obj = {"L": L, "k": k}
            assert presentations.root_pair_from_json(obj) == (L, k)
            assert RootOfUnity(L, k) == root_from_json(obj)


def test_c_params_guard():
    with pytest.raises(ValueError):
        HopfPresentation.c_family(1)


def test_b_params_convention_enforced():
    with pytest.raises(ValueError):
        BParams.make(1, (3, 2), make_root(6, 1), (0, 1))       # not increasing
    with pytest.raises(ValueError):
        BParams.make(1, (2, 4), make_root(8, 1), (0, 1))       # not coprime
    with pytest.raises(ValueError):
        BParams.make(1, (2, 3), make_root(6, 2), (0, 1))       # q not primitive
    with pytest.raises(ValueError):
        BParams.make(0, (2, 3), make_root(6, 1), (0, 1))       # n < 1


def test_free_shapes_built_once_per_cap(monkeypatch):
    from gkhopf import hopfops

    caps = []
    real = presentations._exponent_vectors

    def spy(weights, powers, degree_cap):
        caps.append(degree_cap)
        return real(weights, powers, degree_cap)

    monkeypatch.setattr(presentations, "_exponent_vectors", spy)
    built = built_b(1, (2, 3), 1, (0, 1))
    for g in range(-12, 13):
        hopfops.skew_primitives(built, g, 6)
    assert caps == [6]
    hopfops.skew_primitives(built, 1, 4)
    assert caps == [6, 4]
    assert type(built.free_shapes(4)) is list and built.free_shapes(6) is built.free_shapes(6)
    assert caps == [6, 4]
