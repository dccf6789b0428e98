"""Sanity of the reference implementations against hand-computed values.

These run first in spirit: every other test that leans on an oracle is only
as good as the checks here.
"""

import subprocess
import sys
from pathlib import Path

from oracles import (brute_betti_fp, brute_homology, dense_snf, is_flag_exhaustive,
                     rank_fraction, rank_gf)


def test_dense_snf_hand_values():
    assert dense_snf([[2, 0], [0, 3]]) == [1, 6]
    assert dense_snf([[2, 0], [0, 4]]) == [2, 4]
    assert dense_snf([[1, 0], [0, 1]]) == [1, 1]
    assert dense_snf([[0, 0], [0, 0]]) == []
    assert dense_snf([[6]]) == [6]
    # 2x2 with determinant 6 and content 1
    assert dense_snf([[2, 1], [0, 3]]) == [1, 6]
    # divisibility chain on a 3x3
    assert dense_snf([[2, 0, 0], [0, 6, 0], [0, 0, 4]]) == [2, 2, 12]


def test_dense_ranks_hand_values():
    mat = [[1, 2], [2, 4]]
    assert rank_fraction(mat) == 1
    assert rank_gf(mat, 3) == 1
    mat = [[1, 0], [0, 2]]
    assert rank_fraction(mat) == 2
    assert rank_gf(mat, 2) == 1  # the 2 vanishes mod 2
    assert rank_gf(mat, 3) == 2


def test_brute_homology_circle_and_sphere():
    circle = [(0, 1), (1, 2), (0, 2)]
    betti, torsion = brute_homology(circle)
    assert betti == [1, 1]
    assert torsion == [(), ()]
    sphere = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
    betti, torsion = brute_homology(sphere)
    assert betti == [1, 0, 1]
    assert torsion == [(), (), ()]


def test_brute_homology_projective_plane():
    # 6-vertex RP^2: H_1 = Z/2, and over F_2 all three betti numbers are 1
    rp2 = [(0, 1, 3), (0, 1, 4), (0, 2, 3), (0, 2, 5), (0, 4, 5),
           (1, 2, 4), (1, 2, 5), (1, 3, 5), (2, 3, 4), (3, 4, 5)]
    betti, torsion = brute_homology(rp2)
    assert betti == [1, 0, 0]
    assert torsion == [(), (2,), ()]
    assert brute_betti_fp(rp2, 2) == [1, 1, 1]
    assert brute_betti_fp(rp2, 3) == [1, 0, 0]


def test_brute_reduced_point():
    betti, torsion = brute_homology([(0,)], reduced=True)
    assert betti == [0]


def test_is_flag_exhaustive_hand_cases():
    hollow = [(0, 1), (1, 2), (0, 2)]
    assert not is_flag_exhaustive(3, hollow)
    full = [(0, 1, 2)]
    assert is_flag_exhaustive(3, full)
    square = [(0, 1), (1, 2), (2, 3), (0, 3)]
    assert is_flag_exhaustive(4, square)


def test_oracles_import_without_the_package():
    # perfbench/check.py loads this module by path as its raag-free reference,
    # so an import of raag here would stop every benchmark run
    tests = str(Path(__file__).resolve().parent)
    code = f"import sys; sys.path.insert(0, {tests!r}); sys.modules['raag'] = None; import oracles"
    proc = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
