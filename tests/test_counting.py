import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noncross import (
    PointSet,
    convex_ham_count,
    convex_path_count,
    count_010_avoiding,
    estimate,
    gen_collinear,
    gen_convex,
    gen_grid,
    log_binom,
    proven_ham_lower,
    pseudotriangle_poly_count,
    pseudotriangle_surround_count,
    surround_series,
)
from noncross.oracle import dp_010_avoiding

SURROUND_SEQ = [1, 4, 13, 40, 120, 354, 1031, 2972, 8495, 24110]


def test_convex_ham_count():
    assert convex_ham_count(2) == 1
    assert convex_ham_count(3) == 3
    assert convex_ham_count(4) == 8
    assert convex_ham_count(8) == 256
    with pytest.raises(ValueError):
        convex_ham_count(1)


def test_convex_path_count():
    assert convex_path_count(1) == 1
    assert convex_path_count(2) == 3
    assert convex_path_count(3) == 9
    assert convex_path_count(4) == 30
    assert convex_path_count(6) == 369
    with pytest.raises(ValueError):
        convex_path_count(0)


def test_pseudotriangle_counts():
    assert pseudotriangle_poly_count(3) == 1
    assert pseudotriangle_poly_count(4) == 3
    assert pseudotriangle_poly_count(5) == 8
    with pytest.raises(ValueError):
        pseudotriangle_poly_count(2)
    assert [pseudotriangle_surround_count(n) for n in range(3, 13)] == SURROUND_SEQ
    with pytest.raises(ValueError):
        pseudotriangle_surround_count(2)


def test_surround_series_matches_sum():
    coeffs = surround_series(30)
    assert coeffs[:10] == SURROUND_SEQ
    for k, c in enumerate(coeffs):
        assert c == pseudotriangle_surround_count(k + 3)


def test_count_010_avoiding_examples():
    assert count_010_avoiding(5, 0) == 1
    assert count_010_avoiding(5, 5) == 1
    assert count_010_avoiding(3, 1) == 2
    assert count_010_avoiding(4, 2) == 4
    with pytest.raises(ValueError):
        count_010_avoiding(3, 4)


def test_count_010_avoiding_vs_dp():
    for n in range(0, 13):
        for ones in range(n + 1):
            assert count_010_avoiding(n, ones) == dp_010_avoiding(n, ones), (n, ones)


def test_count_010_avoiding_vs_brute_enumeration():
    import itertools

    for n in range(0, 9):
        for ones in range(n + 1):
            brute = sum(
                1
                for bits in itertools.product((0, 1), repeat=n)
                if sum(bits) == ones
                and not any(bits[i: i + 3] == (0, 1, 0) for i in range(n - 2))
            )
            assert count_010_avoiding(n, ones) == brute


def test_log_binom_examples():
    assert log_binom(7, 0) == 0.0
    assert math.isclose(log_binom(4, 2), math.log(6), rel_tol=1e-12)
    assert math.isclose(log_binom(30, 10), math.log(30045015), rel_tol=1e-12)
    with pytest.raises(ValueError):
        log_binom(3, 4)


@given(st.integers(min_value=0, max_value=400), st.data())
@settings(max_examples=120, deadline=None)
def test_log_binom_matches_exact(n, data):
    k = data.draw(st.integers(min_value=0, max_value=n))
    exact = math.comb(n, k)
    approx = log_binom(n, k)
    if exact == 1:
        assert abs(approx) < 1e-12
    else:
        assert math.isclose(approx, math.log(exact), rel_tol=1e-11)


def test_estimate_examples():
    col = estimate(gen_collinear(5))
    assert col.ham_scale == 0.0 and col.proven_ham_lower_log2 == 0.0
    assert col.poly_scale == 0.0 and col.offline_k == 0
    conv = estimate(gen_convex(6))
    assert conv.poly_scale == 0.0 and conv.m == 0 and conv.inhull_h == 0
    grid = estimate(gen_grid(3, 3))
    assert (grid.offline_k, grid.inhull_h, grid.m) == (6, 1, 1)
    assert math.isclose(grid.proven_ham_lower_log2, 6 + math.log2(1.5))
    assert proven_ham_lower(gen_grid(3, 3)) == 96


def test_estimate_invariants(family_instances):
    for s in family_instances.values():
        rep = estimate(s)
        for v in (rep.path_scale, rep.ham_scale, rep.poly_scale,
                  rep.proven_ham_lower_log2):
            assert v >= 0.0 and math.isfinite(v)
        assert rep.ham_scale <= rep.path_scale
        assert (rep.ham_scale == 0.0) == (rep.offline_k == 0)
        assert rep.to_json_dict() == {
            "n": rep.n, "offline": rep.offline_k, "inhull": rep.inhull_h, "m": rep.m,
            "path_scale": rep.path_scale, "ham_scale": rep.ham_scale,
            "poly_scale": rep.poly_scale, "proven_ham_lower_log2": rep.proven_ham_lower_log2,
        }


def test_estimate_single_point():
    rep = estimate(PointSet([(0, 0)]))
    assert rep.path_scale == 0.0 and rep.proven_ham_lower_log2 == 0.0
    with pytest.raises(ValueError):
        estimate(PointSet([]))


def test_adding_interior_point_never_decreases_inhull():
    from noncross.params import inhull

    base = gen_convex(5)
    grown = PointSet(list(map(tuple, base.points)) + [(2, 5)])  # inside the hull
    assert inhull(grown) >= inhull(base)
