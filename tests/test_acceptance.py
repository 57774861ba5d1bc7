"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
complete.  Exact counts for the shared instance pool are computed once per
session (both enumerator and oracle sides) and reused by the criteria that
consume them.
"""

import itertools
import math
import time
from contextlib import contextmanager

import pytest

from noncross import (
    PointSet,
    Signature,
    convex_ham_count,
    convex_path_count,
    count_010_avoiding,
    cross_check,
    enumerate_ham_paths,
    enumerate_paths,
    enumerate_polygonalizations,
    enumerate_surrounding,
    enumerate_vv_paths,
    estimate,
    gen_collinear,
    gen_convex,
    gen_one_sided,
    gen_pseudotriangle,
    gen_random,
    ham_path_between,
    is_noncrossing_path,
    is_surrounding_polygon,
    log_binom,
    param_report,
    pseudotriangle_poly_count,
    pseudotriangle_surround_count,
    realize_signature,
    steinhaus_complete,
    surround_series,
)
from noncross.cli import main as cli_main
from noncross.counting import _comb as generalized_comb
from noncross.geom import convex_hull
from noncross.oracle import dp_010_avoiding

from conftest import small_family_instances

SURROUND_SEQ = [1, 4, 13, 40, 120, 354, 1031, 2972, 8495, 24110]


@contextmanager
def criterion(name, capsys=None):
    # Printed outside pytest's capture so the line always reaches the log.
    def emit(verdict):
        if capsys is not None:
            with capsys.disabled():
                print(f"\n[ACCEPTANCE] {name}: {verdict}", flush=True)
        else:
            print(f"\n[ACCEPTANCE] {name}: {verdict}", flush=True)

    try:
        yield
    except BaseException:
        emit("FAIL")
        raise
    emit("PASS")


def random_pool():
    # 100 seeded sets with n cycling through 5..8.
    return {
        f"random{seed}_n{5 + seed % 4}": gen_random(5 + seed % 4, seed, 16)
        for seed in range(100)
    }


@pytest.fixture(scope="module")
def instance_pool():
    pool = dict(small_family_instances())
    pool.update(random_pool())
    return pool


@pytest.fixture(scope="module")
def checked_pool(instance_pool):
    """cross_check report per instance; oracle counts double as exact counts."""
    return {
        name: cross_check(s, oracle_limit=8)
        for name, s in instance_pool.items()
    }


def test_c1_convex_position_exactness(capsys):
    with criterion("C1 convex-position exact counts", capsys):
        t0 = time.perf_counter()
        for n in range(2, 10):
            assert enumerate_ham_paths(gen_convex(n)).count == convex_ham_count(n), n
        for n in range(1, 9):
            assert enumerate_paths(gen_convex(n)).count == convex_path_count(n), n
        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_c2_pseudotriangle_exactness(capsys):
    with criterion("C2 chain-plus-apex exact counts", capsys):
        for n in range(3, 10):
            s = gen_pseudotriangle(n)
            assert enumerate_polygonalizations(s).count == pseudotriangle_poly_count(n), n
            assert enumerate_surrounding(s).count == SURROUND_SEQ[n - 3], n
        for n in range(3, 13):
            assert pseudotriangle_surround_count(n) == SURROUND_SEQ[n - 3], n
        coeffs = surround_series(30)
        for k, c in enumerate(coeffs):
            assert c == pseudotriangle_surround_count(k + 3), k


def test_c3_oracle_equivalence(checked_pool, capsys):
    with criterion("C3 oracle equivalence on 100 random + family instances", capsys):
        assert len([k for k in checked_pool if k.startswith("random")]) >= 100
        mismatches = {
            name: rep.to_json_dict()
            for name, rep in checked_pool.items()
            if not rep.all_match
        }
        assert not mismatches, mismatches


def test_c4_proven_lower_bounds(instance_pool, checked_pool, capsys):
    with criterion("C4 proven lower bounds hold exactly", capsys):
        for name, s in instance_pool.items():
            rep = checked_pool[name]
            counts = {k: c.oracle_count for k, c in rep.classes.items()}
            pr = param_report(s)
            collinear = pr.max_collinear == pr.n
            if not collinear:
                assert counts["ham"] >= math.ceil(1.5 * 2 ** pr.offline_k), name
            h = pr.n - pr.inhull_h  # points on the hull boundary
            if counts["poly"] > 0:
                interior_half = math.ceil((pr.n - h) / 2)
                bound = generalized_comb(h // 4 + interior_half - 1, interior_half)
                assert counts["poly"] >= bound, name
            assert counts["path"] >= counts["ham"], name
            assert counts["surround"] >= counts["poly"], name
            if not collinear and pr.n >= 3:
                assert counts["surround"] >= 1, name
            assert counts["path"] >= pr.n + math.comb(pr.max_collinear, 2), name
        # One-sided family bound, with the line's point count known exactly.
        for ell, off in ((2, 1), (2, 2), (3, 2), (4, 3), (3, 3), (2, 5)):
            s = gen_one_sided(ell, off)
            n = s.n
            exact = enumerate_ham_paths(s).count
            assert exact >= math.comb(n - math.ceil(ell / 2), ell // 2), (ell, off)


def _all_signatures(n, ones):
    for positions in itertools.combinations(range(n), ones):
        bits = tuple(1 if i in positions else 0 for i in range(n))
        if not any(bits[i: i + 3] == (0, 1, 0) for i in range(n - 2)):
            yield bits


def test_c5_construction_validity(instance_pool, capsys):
    with criterion("C5 every construction output validates", capsys):
        small = {name: s for name, s in instance_pool.items() if s.n <= 8}
        # Visible-vertex tree leaves.
        for name, s in small.items():
            leaves = []
            enumerate_vv_paths(s, leaves.append)
            for leaf in leaves:
                assert len(leaf) == s.n and is_noncrossing_path(s, leaf), name
        # Hull-to-hull Hamiltonian paths, every ordered hull vertex pair.
        for name, s in small.items():
            for p, q in itertools.permutations(convex_hull(s).vertices, 2):
                path = ham_path_between(s, p, q)
                assert path[0] == p and path[-1] == q and len(path) == s.n
                assert is_noncrossing_path(s, path), (name, p, q)
        # Signature realization: every valid signature of every one-sided
        # instance with n <= 10; injective per instance.
        for ell in range(2, 11):
            for off in range(0, 11 - ell):
                s = gen_one_sided(ell, off)
                on_line = {i for i in range(s.n) if s[i].y == 0}
                seen = {}
                for bits in _all_signatures(s.n, ell):
                    path = realize_signature(s, Signature(bits))
                    assert is_noncrossing_path(s, path), (ell, off, bits)
                    assert tuple(1 if i in on_line else 0 for i in path) == bits
                    seen[bits] = min(path, path[::-1])
                assert len(set(seen.values())) == len(seen), (ell, off)
        # Hull completion: drop each hull vertex of each convex set, and the
        # apex of each chain set, polygonalize the rest, then complete.
        for n in range(4, 9):
            s = gen_convex(n)
            for q in range(n):
                rest = tuple(i for i in range(n) if i != q)
                done = steinhaus_complete(s, rest)
                assert set(done) == set(range(n))
                assert is_surrounding_polygon(s, done), (n, q)
        for n in range(4, 9):
            s = gen_pseudotriangle(n)
            done = steinhaus_complete(s, tuple(range(n - 1)))
            assert set(done) == set(range(n))
            assert is_surrounding_polygon(s, done), n


def test_c6_formula_self_consistency(capsys):
    with criterion("C6 sequence formula and log-binomial accuracy", capsys):
        for n in range(0, 21):
            for ones in range(n + 1):
                assert count_010_avoiding(n, ones) == dp_010_avoiding(n, ones), (n, ones)
        for n in (1, 2, 3, 7, 20, 64, 100, 777, 1000, 4096, 10000):
            ks = sorted({0, 1, 2, n // 3, n // 2, n - 1, n} & set(range(n + 1)))
            for k in ks:
                exact = math.comb(n, k)
                approx = log_binom(n, k)
                if exact == 1:
                    assert abs(approx) < 1e-9
                else:
                    assert abs(approx - math.log(exact)) <= 1e-9 * math.log(exact), (n, k)


def test_c7_degenerate_handling(capsys, tmp_path):
    with criterion("C7 degenerate inputs", capsys):
        s = gen_collinear(5)
        assert enumerate_ham_paths(s).count == 1
        poly = enumerate_polygonalizations(s)
        sur = enumerate_surrounding(s)
        assert poly.count == 0 and poly.degenerate
        assert sur.count == 0 and sur.degenerate
        rep = param_report(s)
        assert rep.offline_k == 0 and rep.inhull_h == 0
        est = estimate(s)
        assert est.ham_scale == est.poly_scale == est.proven_ham_lower_log2 == 0.0
        for cmd in (["params", "--gen", "collinear:5"],
                    ["estimate", "--gen", "collinear:5"],
                    ["enumerate", "poly", "--gen", "collinear:5"]):
            assert cli_main(cmd) == 0
        capsys.readouterr()
        bad = tmp_path / "dup.txt"
        bad.write_text("1 2\n1 2\n")
        assert cli_main(["params", "--input", str(bad)]) == 1
        err = capsys.readouterr().err
        assert "duplicate" in err
        with pytest.raises(ValueError):
            PointSet([(1, 2), (1, 2)])


def test_c8_determinism(instance_pool, capsys):
    with criterion("C8 byte-identical deterministic enumeration", capsys):
        for name, s in instance_pool.items():
            if s.n > 8:
                continue
            runs = []
            for _ in range(2):
                record = {"paths": [], "ham": [], "surround": [], "poly": []}
                enumerate_paths(s, record["paths"].append)
                enumerate_ham_paths(s, record["ham"].append)
                enumerate_surrounding(s, record["surround"].append)
                enumerate_polygonalizations(s, record["poly"].append)
                runs.append(record)
            assert runs[0] == runs[1], name
        for argv in (["enumerate", "ham", "--gen", "pseudotriangle:6"],
                     ["enumerate", "surround", "--gen", "grid:3x3"]):
            outs = []
            for _ in range(2):
                assert cli_main(list(argv)) == 0
                outs.append(capsys.readouterr().out)
            assert outs[0] == outs[1], argv


def test_c9_output_sensitivity_report(capsys):
    # Informational: exercise growing instances under a shared wall-clock
    # budget and report nodes visited per emitted structure.  No threshold
    # is asserted.
    with criterion("C9 output-sensitivity report (informational)", capsys):
        budget = 120.0
        rows = []
        known = {("convex", "ham"): convex_ham_count,
                 ("pseudotriangle", "surround"): pseudotriangle_surround_count}

        def sweep(family, kind, start_n, deadline):
            n = start_n
            last = 0.0
            while time.perf_counter() + 3 * last < deadline:
                t0 = time.perf_counter()
                code = cli_main(["count", kind, "--gen", f"{family}:{n}"])
                last = time.perf_counter() - t0
                out = capsys.readouterr().out
                assert code == 0
                fields = dict(tok.split("=") for tok in out.split())
                # Counts are checked against the closed forms as far as the
                # budget reaches; only the ratios are informational.
                assert int(fields["count"]) == known[(family, kind)](n), (family, n)
                rows.append((family, kind, n, int(fields["count"]),
                             int(fields["nodes_visited"]),
                             fields["nodes_per_structure"], last))
                n += 1
            return n - 1

        t_start = time.perf_counter()
        sweep("convex", "ham", 4, t_start + budget / 2)
        sweep("pseudotriangle", "surround", 4, t_start + budget)
        assert rows
        with capsys.disabled():
            print("\n  family          kind      n      count      nodes  nodes/output  secs")
            for fam, kind, n, count, nodes, ratio, secs in rows:
                print(f"  {fam:<15} {kind:<8} {n:>2} {count:>10} {nodes:>10}"
                      f"  {ratio:>12} {secs:>5.1f}")
