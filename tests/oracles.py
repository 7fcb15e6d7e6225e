"""Brute-force references the library's fast paths are tested against.

None of this is library code: each function enumerates or scans the
whole search space, so it only runs on the small families of the tests.
"""

import itertools

from glattice.linalg import SemilinearMap, add_vectors, rref, scale_vector
from glattice.scalar import list_automorphisms


def leq_matrix(lattice):
    """The order of a lattice as an m x m matrix of bools, read off its
    up-set masks: entry (x, y) is x <= y."""
    m = lattice.size
    return [[bool(lattice.up_masks[x] >> y & 1) for y in range(m)] for x in range(m)]


# ---------------------------------------------------------------------------
# subspaces


def point_rows(w):
    """Canonical basis rows of the 1-dimensional subspaces inside the
    ``Subspace`` w, spanned with ``Scalar`` arithmetic.

    The first nonzero entry of ``sum(c_i * basis[i])`` is ``c_t`` at
    ``pivots[t]``, for the first t with ``c_t != 0``; so the
    combinations with ``c_t = 1`` are already in reduced form.
    """
    units = w.space.ring.units()
    span = [w.space.zero_vector()]  # span of basis[t + 1:]
    rows = []
    for t in reversed(range(w.dim)):
        rows.extend(add_vectors(w.basis[t], v) for v in span)
        if t:
            multiples = [scale_vector(c, w.basis[t]) for c in units]
            span += [add_vectors(u, v) for u in multiples for v in span]
    return rows


# ---------------------------------------------------------------------------
# SGL(V) in enumeration order


def invertible_matrices(space):
    """All invertible matrices, in row-major lexicographic order."""
    n, ring = space.dim, space.ring
    all_rows = [tuple(v) for v in itertools.product(ring.elements(), repeat=n)]

    def extend(chosen, echelon):
        if len(chosen) == n:
            yield tuple(chosen)
            return
        for row in all_rows:
            reduced, _ = rref(list(echelon) + [row], ring)
            if len(reduced) == len(echelon) + 1:
                yield from extend(chosen + [row], reduced)

    yield from extend([], ())


def iter_semilinear_automorphisms(space):
    """Lazily yield all of SGL(V) over a finite field: ring automorphisms
    outer (identity first), invertible matrices inner in lexicographic
    order."""
    for theta in list_automorphisms(space.ring):
        for matrix in invertible_matrices(space):
            yield SemilinearMap(space, matrix, theta)


def enumerate_sgl(space):
    return list(iter_semilinear_automorphisms(space))


# ---------------------------------------------------------------------------
# groups


def normal_subgroup_indices(group, lat):
    """Indices (in the subgroup lattice) of the normal subgroups,
    decided by the direct coset test gH == Hg."""
    normal = []
    for i, sub in enumerate(lat.payloads):
        mem = set(sub.members)
        if all(
            {group.cayley[g][h] for h in mem} == {group.cayley[h][g] for h in mem}
            for g in range(group.order)
        ):
            normal.append(i)
    return normal
