"""Acceptance gate: the seven headline checks, one printed line each.

Run with -s (or -rA) to see the ACCEPTANCE lines for passing criteria too.
Every check is exact; the only tolerances are the stated wall-clock budgets.
"""

import random
import time
from fractions import Fraction

import pytest

from oracles import random_facets

from raag.classify import (CERT_COLLAPSE, CERT_COMPLEMENTARY, CERT_WITNESS,
                           POSITIVE, ZERO, EmbeddingWitness, Verdict,
                           classify, replay_certificate)
from raag.fixtures import _polygon_disk, fixture, standard_fixtures
from raag.homology import (betti_Fp, cube_chain_complex, homology_summary,
                           simplicial_chain_complex, top_cohomology_nonzero,
                           uct_betti_fp)
from raag.models import CubeComplex, FiniteQuotientSpec, standard_spec
from raag.simplicial import (barycentric_subdivision, cone, from_facets,
                             induced_subcomplex, is_flag, join)
from raag.growth import growth_experiment


def _announce(n: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} ({detail})")


def _flag_menu():
    return {name: x for name, x in standard_fixtures().items() if is_flag(x)[0]}


# -- criterion 1: the verdict table ---------------------------------------------------


def _verdict_cases():
    cases = []
    cases.append(("cycle(5)", fixture("cycle", n=5), POSITIVE))
    cases.append(("octahedron", fixture("octahedron"), POSITIVE))
    cases.append(("rp2_flag", fixture("rp2_flag"), POSITIVE))
    cases.append(("moore_flag(3)", fixture("moore_flag", q=3), POSITIVE))
    cases.append(("sd(octahedron)",
                  barycentric_subdivision(fixture("octahedron")).complex, POSITIVE))
    cases.append(("sd(icosahedron)",
                  barycentric_subdivision(fixture("icosahedron")).complex, POSITIVE))

    cases.append(("path(4)", fixture("path", n=4), ZERO))
    cases.append(("star(4)", from_facets([[0, 1], [0, 2], [0, 3]]), ZERO))
    for n in range(6):
        cases.append((f"simplex({n})", fixture("simplex", n=n), ZERO))
    cases.append(("disk_flag", fixture("disk_flag"), ZERO))
    for name, x in sorted(_flag_menu().items()):
        cases.append((f"cone({name})", cone(x), ZERO))
    cases.append(("rp2_flag * moore_flag(3)",
                  join(fixture("rp2_flag"), fixture("moore_flag", q=3)), ZERO))
    return cases


@pytest.fixture(scope="module")
def verdict_table():
    """name -> (complex, verdict, seconds); shared by criteria 1, 2, and 7."""
    table = {}
    for name, L, expected in _verdict_cases():
        t0 = time.monotonic()
        v = classify(L)
        table[name] = (L, v, time.monotonic() - t0, expected)
    return table


def test_acceptance_1_verdict_table(verdict_table):
    failures = []
    slow = []
    for name, (L, v, secs, expected) in verdict_table.items():
        if v.outcome != expected:
            failures.append(f"{name}: {v.outcome} != {expected}")
        if secs >= 60.0:
            slow.append(f"{name}: {secs:.1f}s")
    ok = not failures and not slow
    worst = max(secs for _, _, secs, _ in verdict_table.values())
    _announce(1, ok, f"verdict table, {len(verdict_table)} cases, slowest {worst:.1f}s")
    assert not failures, failures
    assert not slow, slow


def test_acceptance_2_five_dimensional_join(verdict_table):
    factors_positive = (
        verdict_table["rp2_flag"][1].outcome == POSITIVE
        and verdict_table["moore_flag(3)"][1].outcome == POSITIVE)
    L, v, _, _ = verdict_table["rp2_flag * moore_flag(3)"]
    h = v.homology
    join_zero = (
        v.outcome == ZERO
        and v.certificate.kind == CERT_COMPLEMENTARY
        and v.d == 5 and v.gdim == 6
        and h.betti[4] == 0 and h.betti[5] == 0
        and h.torsion[4] == ()
        and all(uct_betti_fp(h.betti, h.torsion, p)[5] == 0 for p in (2, 3, 5, 7)))
    ok = factors_positive and join_zero
    _announce(2, ok, "factors positive, 5-dim join vanishes with torsion-free H_4")
    assert factors_positive
    assert join_zero


def test_acceptance_3_homology_goldens():
    t0 = time.monotonic()
    checks = []
    h = homology_summary(fixture("rp2_6"))
    checks.append(h.group(1) == (0, (2,)))
    for q in (2, 3, 5):
        checks.append(homology_summary(fixture("moore", q=q)).group(1) == (0, (q,)))
    for n in (2, 3, 4):
        h = homology_summary(fixture("simplex_boundary", n=n))
        checks.append(h.group(n - 1) == (1, ()))
    secs = time.monotonic() - t0
    ok = all(checks) and secs < 10.0
    _announce(3, ok, f"homology goldens, {len(checks)} identities, {secs:.2f}s")
    assert all(checks)
    assert secs < 10.0


def test_acceptance_4_universal_coefficients_suite():
    rng = random.Random(20260821)
    mismatches = 0
    for _ in range(100):
        x = from_facets(random_facets(rng, max_vertices=7))
        h = homology_summary(x, reduced=True, primes=None)
        cc = simplicial_chain_complex(x)
        primes = {2, 3, 5, 7}
        for degree in h.torsion:
            for t in degree:
                primes.update(p for p in (2, 3, 5, 7, 11, 13) if t % p == 0)
        mod = {p: betti_Fp(cc, p)[1:] for p in sorted(primes)}  # reduced degree k is k + 1
        for p, table in mod.items():
            if table != uct_betti_fp(h.betti, h.torsion, p):
                mismatches += 1
        nz, _ = top_cohomology_nonzero(x, summary=h)
        if nz != any(table[x.dim] > 0 for table in mod.values()):
            mismatches += 1
    ok = mismatches == 0
    _announce(4, ok, f"universal coefficients on 100 random complexes, "
                     f"{mismatches} mismatches")
    assert mismatches == 0


def _chi(dims):
    return sum((-1) ** i * c for i, c in enumerate(dims))


def test_acceptance_5_salvetti_exactness():
    # chi from the cell counts on every flag fixture; boundary checks and
    # covers only on those with at most 6 vertices.  The Salvetti complex is
    # the support complex of T = {}: one copy of the cube cells of x, no unit
    # direction.
    menu = _flag_menu()
    chi_ok, cover_ok = True, True
    covers_checked = 0
    for name, x in sorted(menu.items()):
        base = cube_chain_complex(x)
        if _chi(base.dims) != 1 - x.euler_characteristic():
            chi_ok = False
        if x.n_vertices > 6:
            continue
        base.validate()
        specs = [standard_spec(x, 2)]
        if x.n_vertices <= 4:
            specs.append(standard_spec(x, 3))
        for spec in specs:
            cov = CubeComplex(x, spec)
            cc = cov.chain_complex()
            cc.validate()
            covers_checked += 1
            if _chi(cc.dims) != cov.index * _chi(base.dims):
                cover_ok = False
    ok = chi_ok and cover_ok
    _announce(5, ok, f"chi = 1 - chi(L) on {len(menu)} flag fixtures, "
                     f"{covers_checked} covers, chi and boundary checks exact")
    assert chi_ok and cover_ok


# -- criterion 6: growth exact families ------------------------------------------------


def _canonical_moduli(n_parts: int, limit: int):
    """Divisibility-ordered modulus tuples (a | b | ...) with product <= limit.

    Every finite abelian quotient shape with at most n_parts cyclic factors
    appears exactly once in its invariant-factor normal form.
    """
    out = []

    def walk(prefix, budget):
        if len(prefix) == n_parts:
            out.append(tuple(prefix))
            return
        last = prefix[-1] if prefix else 1
        m = last
        while m <= budget:
            if m % last == 0:
                walk(prefix + [m], budget // m)
            m += 1

    walk([], limit)
    return out


def _free_cover_b1(x, spec):
    cov = CubeComplex(x, spec)
    betti = betti_Fp(cov.chain_complex(), 2)
    return cov.index, betti


def _free_growth_problems(x, spec, index, n):
    """growth_experiment of one spec on the free group's x must hit the
    closed form b_1 = index (n - 1) + 1."""
    cov = growth_experiment(x, [spec], 2).covers[0]
    if cov.index != index or cov.betti != cov.expected or cov.betti[1] != index * (n - 1) + 1:
        return [f"free n={n} {spec}: growth_experiment {cov}"]
    return []


def test_acceptance_6_growth_exact_families():
    t0 = time.monotonic()
    problems = []

    # (a) free groups: every abelian cover of index <= 625, coordinate surjections,
    # built and through growth_experiment on one x, which keeps its tables
    for n in (2, 3):
        x = fixture("discrete", n=n)
        seen = []
        for moduli in _canonical_moduli(n, 625):
            spec = FiniteQuotientSpec(moduli=moduli, images=tuple(
                tuple(1 if j == v else 0 for j in range(n)) for v in range(n)))
            index, betti = _free_cover_b1(x, spec)
            if betti != (1, index * (n - 1) + 1):
                problems.append(f"free n={n} moduli={moduli}: betti {betti}")
            problems += _free_growth_problems(x, spec, index, n)
            seen.append((index, Fraction(betti[1], index)))
        seen.sort()
        for (i1, r1), (i2, r2) in zip(seen, seen[1:]):
            if i1 < i2 and not r1 > r2:
                problems.append(f"free n={n}: ratio not strictly decreasing "
                                f"at indices {i1}, {i2}")
            if i1 == i2 and r1 != r2:
                problems.append(f"free n={n}: equal index {i1} with split ratios")
        limit_gap = seen[-1][1] - (n - 1)
        if limit_gap != Fraction(1, seen[-1][0]):
            problems.append(f"free n={n}: limit gap {limit_gap}")
        # surjections that mix coordinates obey the same index-only formula
        for spec in (
            FiniteQuotientSpec(moduli=(4, 8), images=((1, 3), (2, 1))[:n] + ((0, 1),) * (n - 2)),
            FiniteQuotientSpec(moduli=(6, 6), images=((1, 1), (2, 3))[:n] + ((1, 5),) * (n - 2)),
        ):
            index, betti = _free_cover_b1(x, spec)
            if betti[1] != index * (n - 1) + 1:
                problems.append(f"free n={n} scrambled {spec.moduli}: betti {betti}")
            problems += _free_growth_problems(x, spec, index, n)

    # (b) full 1-simplex: every cover is a torus
    edge = fixture("simplex", n=1)
    for p in (2, 3):
        series = growth_experiment(edge, [standard_spec(edge, k) for k in (2, 3, 4)], p)
        if series.exact_match() is not True:
            problems.append(f"torus family not exact at p={p}")
        if any(c.betti != (1, 2, 1) for c in series.covers):
            problems.append(f"torus cover betti wrong at p={p}")
        ratios = [c.ratio(1) for c in series.covers]
        if not all(a > b for a, b in zip(ratios, ratios[1:])):
            problems.append("torus ratios not decreasing toward 0")

    # (c) the 4-cycle: b_2 = (k^2 + 1)^2 and the exact ratio gap
    c4 = fixture("cycle", n=4)
    for p in (2, 3):
        series = growth_experiment(c4, [standard_spec(c4, k) for k in (2, 3)], p)
        if series.exact_match() is not True:
            problems.append(f"product family not exact at p={p}")
        for k, cov in zip((2, 3), series.covers):
            if cov.betti[2] != (k * k + 1) ** 2:
                problems.append(f"C_4 k={k} p={p}: b_2 = {cov.betti[2]}")
            if cov.ratio(2) - 1 != Fraction(2 * k * k + 1, k ** 4):
                problems.append(f"C_4 k={k} p={p}: ratio gap {cov.ratio(2) - 1}")

    secs = time.monotonic() - t0
    ok = not problems and secs < 300.0
    _announce(6, ok, f"growth families exact, {secs:.1f}s")
    assert not problems, problems[:10]
    assert secs < 300.0


def test_acceptance_7_certificate_replay(verdict_table):
    disk = _polygon_disk(6)
    annulus, _ = induced_subcomplex(disk, range(12))
    witness = EmbeddingWitness(supercomplex=disk, embedding=tuple(range(12)))
    extra = [(annulus, classify(annulus, witness=witness))]

    total, replayed = 0, 0
    kinds = set()
    rows = [(L, v) for (L, v, _, _) in verdict_table.values()] + extra
    for L, v in rows:
        if v.certificate is None:
            continue
        if v.certificate.kind not in (CERT_COLLAPSE, CERT_WITNESS):
            continue
        total += 1
        kinds.add(v.certificate.kind)
        back = Verdict.from_json(v.to_json())
        ok, _why = replay_certificate(L, back)
        if ok:
            replayed += 1
    ok = total > 0 and replayed == total and kinds == {CERT_COLLAPSE, CERT_WITNESS}
    _announce(7, ok, f"{replayed}/{total} collapse and witness certificates "
                     f"replayed from serialized form")
    assert kinds == {CERT_COLLAPSE, CERT_WITNESS}
    assert total > 0 and replayed == total

