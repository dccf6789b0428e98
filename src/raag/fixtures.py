"""Named input complexes with frozen triangulations and build-time self-checks.

Each nontrivial fixture re-verifies its Euler characteristic and integral
homology through the engine the first time it is built (results are memoized),
so a regression in either the triangulation data or the homology pipeline
fails loudly at construction time.
"""

from __future__ import annotations

import functools
from typing import Dict, Optional, Sequence, Tuple

from .errors import FixtureError
from .homology import homology_summary
from .simplicial import (SimplicialComplex, barycentric_subdivision, from_facets,
                         join, simplicial_quotient)

# Icosahedron boundary: poles 0 and 11, upper ring 1..5, lower ring 6..10, the
# lower ring offset half a step.  The antipodal map is (0 11)(1 8)(2 9)(3 10)
# (4 6)(5 7); collapsing each pair to its smaller id gives the 6-vertex
# projective plane whose 1-skeleton is K_6.
_ICOSAHEDRON_FACETS: Tuple[Tuple[int, ...], ...] = tuple(
    [(0, 1 + i, 1 + (i + 1) % 5) for i in range(5)]
    + [(1 + i, 1 + (i + 1) % 5, 6 + i) for i in range(5)]
    + [(6 + i, 6 + (i + 1) % 5, 1 + (i + 1) % 5) for i in range(5)]
    + [(11, 6 + i, 6 + (i + 1) % 5) for i in range(5)]
)

_ANTIPODAL_QUOTIENT = (0, 1, 2, 3, 4, 5, 4, 5, 1, 2, 3, 0)


def _polygon_disk(m: int) -> SimplicialComplex:
    """Triangulated disk whose boundary is the m-gon 0..m-1.

    Between the boundary and the central cone there is a full parallel ring
    m..2m-1, so each boundary edge has its own interior apex; quotients that
    only identify boundary vertices then stay injective away from the
    boundary circle.
    """
    c = 2 * m
    facets = []
    for i in range(m):
        j = (i + 1) % m
        facets.append((i, j, m + i))
        facets.append((j, m + i, m + j))
        facets.append((c, m + i, m + j))
    return from_facets(facets)


def boundary_identification_map(m: int, boundary_images: Sequence[int]) -> Tuple[int, ...]:
    """Vertex map for _polygon_disk(m) quotients: glue the boundary, keep the rest.

    boundary_images[i] is the target of boundary vertex i; targets must be
    0..t-1.  Interior ring and center are shifted up to stay dense.
    """
    t = max(boundary_images) + 1
    ring = tuple(t + i for i in range(m))
    return tuple(boundary_images) + ring + (t + m,)


def moore_space(q: int) -> SimplicialComplex:
    """Mod-q Moore space: disk with 3q-gon boundary wrapped q times on a 3-gon.

    The boundary vertex i goes to i mod 3, which realizes the degree-q
    simplicial circle map; H_1 = Z/q is re-verified at build time.
    """
    if q < 2:
        raise FixtureError(f"moore requires q >= 2, got {q}")
    m = 3 * q
    disk = _polygon_disk(m)
    vmap = boundary_identification_map(m, [i % 3 for i in range(m)])
    return simplicial_quotient(disk, vmap)


def _check(x: SimplicialComplex, euler: int, betti: Tuple[int, ...],
           torsion: Tuple[Tuple[int, ...], ...]) -> SimplicialComplex:
    if x.euler_characteristic() != euler:
        raise FixtureError(f"fixture self-check failed: chi={x.euler_characteristic()}, want {euler}")
    h = homology_summary(x)
    if h.betti != betti or h.torsion != torsion:
        raise FixtureError(
            f"fixture self-check failed: H={h.betti}/{h.torsion}, want {betti}/{torsion}")
    return x


def _named(x: SimplicialComplex, name: str) -> SimplicialComplex:
    return SimplicialComplex(x.n_vertices, x.facets, name=name)


@functools.lru_cache(maxsize=None)
def _build(name: str, n: Optional[int], q: Optional[int]) -> SimplicialComplex:
    if name == "simplex":
        if n is None or n < 0:
            raise FixtureError("simplex requires n >= 0")
        x = from_facets([range(n + 1)])
        return _check(x, 1, (1,) + (0,) * n, ((),) * (n + 1))
    if name == "simplex_boundary":
        if n is None or n < 1:
            raise FixtureError("simplex_boundary requires n >= 1")
        x = from_facets([c for c in _facet_deletions(tuple(range(n + 1)))])
        betti = [1] + [0] * (n - 1)
        betti[n - 1] += 1  # sphere S^{n-1}; n = 1 gives two points
        return _check(x, 1 + (-1) ** (n - 1), tuple(betti), ((),) * n)
    if name == "cycle":
        if n is None or n < 3:
            raise FixtureError("cycle requires n >= 3")
        x = from_facets([(i, (i + 1) % n) for i in range(n)])
        return _check(x, 0, (1, 1), ((), ()))
    if name == "path":
        if n is None or n < 1:
            raise FixtureError("path requires n >= 1 vertices")
        if n == 1:
            return _check(from_facets([[0]]), 1, (1,), ((),))
        x = from_facets([(i, i + 1) for i in range(n - 1)])
        return _check(x, 1, (1, 0), ((), ()))
    if name == "discrete":
        if n is None or n < 1:
            raise FixtureError("discrete requires n >= 1")
        x = from_facets([[i] for i in range(n)])
        return _check(x, n, (n,), ((),))
    if name == "octahedron":
        x = join(join(_build("discrete", 2, None), _build("discrete", 2, None)),
                 _build("discrete", 2, None))
        return _check(x, 2, (1, 0, 1), ((), (), ()))
    if name == "icosahedron":
        x = from_facets(_ICOSAHEDRON_FACETS)
        return _check(x, 2, (1, 0, 1), ((), (), ()))
    if name == "rp2_6":
        x = simplicial_quotient(_build("icosahedron", None, None), _ANTIPODAL_QUOTIENT)
        if x.f_vector() != (6, 15, 10):
            raise FixtureError(f"rp2_6 has f-vector {x.f_vector()}, want (6, 15, 10)")
        return _check(x, 1, (1, 0, 0), ((), (2,), ()))
    if name == "rp2_flag":
        x = barycentric_subdivision(_build("rp2_6", None, None)).complex
        if x.f_vector() != (31, 90, 60):
            raise FixtureError(f"rp2_flag has f-vector {x.f_vector()}, want (31, 90, 60)")
        return _check(x, 1, (1, 0, 0), ((), (2,), ()))
    if name == "moore":
        if q is None:
            raise FixtureError("moore requires q")
        return _check(moore_space(q), 1, (1, 0, 0), ((), (q,), ()))
    if name == "moore_flag":
        if q is None:
            raise FixtureError("moore_flag requires q")
        x = barycentric_subdivision(_build("moore", None, q)).complex
        return _check(x, 1, (1, 0, 0), ((), (q,), ()))
    if name == "disk_flag":
        x = barycentric_subdivision(_build("simplex", 2, None)).complex
        return _check(x, 1, (1, 0, 0), ((), (), ()))
    if name == "dunce":
        # 9-gon disk with boundary wrapped on a triangle by the word aaa^{-1}:
        # contractible, but every edge lies in 2 or 3 triangles, so neither it
        # nor any subdivision has a free face to start a collapse
        disk = _polygon_disk(9)
        vmap = boundary_identification_map(9, (0, 1, 2, 0, 1, 2, 0, 2, 1))
        x = simplicial_quotient(disk, vmap)
        if x.f_vector() != (13, 39, 27):
            raise FixtureError(f"dunce has f-vector {x.f_vector()}, want (13, 39, 27)")
        return _check(x, 1, (1, 0, 0), ((), (), ()))
    if name == "dunce_flag":
        x = barycentric_subdivision(_build("dunce", None, None)).complex
        return _check(x, 1, (1, 0, 0), ((), (), ()))
    raise FixtureError(f"unknown fixture {name!r}")


def _facet_deletions(s: Tuple[int, ...]):
    for i in range(len(s)):
        yield s[:i] + s[i + 1:]


_PARAMETER = {"simplex": "n", "simplex_boundary": "n", "cycle": "n", "path": "n",
              "discrete": "n", "moore": "q", "moore_flag": "q"}


def fixture(name: str, n: Optional[int] = None, q: Optional[int] = None) -> SimplicialComplex:
    """Build a named fixture; parameters n (family size) and q (Moore order).

    Names: simplex, simplex_boundary, cycle, path, discrete, octahedron,
    icosahedron, rp2_6, rp2_flag, moore, moore_flag, disk_flag, dunce,
    dunce_flag.  A parameter the fixture does not take raises FixtureError.
    Every call returns a new complex on the cached facets, with empty caches:
    callers share no chain complex, join factors or support rows.
    """
    for param, value in (("n", n), ("q", q)):
        if value is not None and name in FIXTURE_NAMES and _PARAMETER.get(name) != param:
            raise FixtureError(f"fixture {name} takes no parameter {param}")
    x = _build(name, n, q)
    value = n if q is None else q
    return _named(x, name if value is None else f"{name}({value})")


FIXTURE_NAMES = ("simplex", "simplex_boundary", "cycle", "path", "discrete",
                 "octahedron", "icosahedron", "rp2_6", "rp2_flag", "moore",
                 "moore_flag", "disk_flag", "dunce", "dunce_flag")


def standard_fixtures() -> Dict[str, SimplicialComplex]:
    """The menu test suites sweep over: one instance per family."""
    menu = {}
    for nm, kw in [
        ("simplex(2)", dict(name="simplex", n=2)),
        ("simplex(3)", dict(name="simplex", n=3)),
        ("simplex_boundary(2)", dict(name="simplex_boundary", n=2)),
        ("simplex_boundary(3)", dict(name="simplex_boundary", n=3)),
        ("simplex_boundary(4)", dict(name="simplex_boundary", n=4)),
        ("cycle(4)", dict(name="cycle", n=4)),
        ("cycle(5)", dict(name="cycle", n=5)),
        ("cycle(6)", dict(name="cycle", n=6)),
        ("path(4)", dict(name="path", n=4)),
        ("discrete(2)", dict(name="discrete", n=2)),
        ("discrete(3)", dict(name="discrete", n=3)),
        ("octahedron", dict(name="octahedron")),
        ("icosahedron", dict(name="icosahedron")),
        ("rp2_6", dict(name="rp2_6")),
        ("rp2_flag", dict(name="rp2_flag")),
        ("moore(2)", dict(name="moore", q=2)),
        ("moore(3)", dict(name="moore", q=3)),
        ("moore(5)", dict(name="moore", q=5)),
        ("moore_flag(2)", dict(name="moore_flag", q=2)),
        ("moore_flag(3)", dict(name="moore_flag", q=3)),
        ("disk_flag", dict(name="disk_flag")),
        ("dunce", dict(name="dunce")),
        ("dunce_flag", dict(name="dunce_flag")),
    ]:
        menu[nm] = fixture(**kw)
    return menu
