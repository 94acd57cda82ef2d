"""Reference answers that share no code with the subset sum.

Groups are kept in a canonical form of this module's own,
``{degree: (rank, sorted prime powers)}``, so a check does not rely on the
package's own normalisation of torsion.  The sources of truth:

* closed forms: Z(simplex_n) = S^{2n+1}; for the m-gon, Hochster's formula
  counts components of arcs on the m-cycle, which gives
  b_{j+1} = m * C(m-2, j-1) - C(m, j) for 1 <= j <= m-1;
* Kuenneth, torsion included, for joins and products:
  Z_{K*L} = Z_K x Z_L and Z_{P x Q} = Z_P x Z_Q;
* the cut decomposition of the source paper, applied to a closed form as
  many times as the polytope was cut (rank level; every base used here is
  torsion-free, so every cut of it is too).
"""

from __future__ import annotations

from math import comb, gcd

# H*(Z_K) for the 6-vertex projective plane.  K is 2-neighbourly with 10 of
# its 20 triples as faces, so Hochster's formula gives Z^10 in degree 5 from
# the 10 empty triangles, and the whole vertex set gives H_1 = Z/2 shifted to
# degree 1 + 6 + 2 = 9.
RP2_6_VERTEX = {0: (1, ()), 5: (10, ()), 6: (15, ()), 7: (6, ()), 9: (0, (2,))}


def _prime_powers(n: int) -> list[int]:
    out, p = [], 2
    while p * p <= n:
        q = 1
        while n % p == 0:
            q *= p
            n //= p
        if q > 1:
            out.append(q)
        p += 1
    if n > 1:
        out.append(n)
    return out


def canonical(groups: dict) -> dict[int, tuple[int, tuple[int, ...]]]:
    """Drop zero groups and split torsion orders into prime powers."""
    out = {}
    for d, (rank, torsion) in groups.items():
        powers = tuple(sorted(q for t in torsion for q in _prime_powers(int(t))))
        if rank or powers:
            out[int(d)] = (int(rank), powers)
    return out


def from_json_groups(data: dict) -> dict[int, tuple[int, tuple[int, ...]]]:
    """Canonical form of a ``GradedGroups.to_json_dict()`` payload."""
    return canonical(
        {int(d): (g["rank"], tuple(g["torsion"])) for d, g in data.items()}
    )


def sphere(d: int) -> dict:
    return canonical({0: (1, ()), d: (1, ())})


def simplex_closed_form(n: int) -> dict:
    """Z of the n-simplex: the dual is the boundary of a simplex, Z = S^{2n+1}."""
    return sphere(2 * n + 1)


def polygon_closed_form(m: int) -> dict:
    ranks = {0: 1, m + 2: 1}
    for j in range(1, m):
        b = m * comb(m - 2, j - 1) - comb(m, j)
        if b:
            ranks[j + 1] = b
    return canonical({d: (r, ()) for d, r in ranks.items()})


def _tensor(a, b) -> tuple[int, list[int]]:
    (ra, ta), (rb, tb) = a, b
    torsion = list(ta) * rb + list(tb) * ra + [gcd(x, y) for x in ta for y in tb]
    return ra * rb, torsion


def kunneth(x: dict, y: dict) -> dict:
    """H*(X x Y) = sum H^i(X) (x) H^j(Y) + sum_{i+j=n+1} Tor(H^i(X), H^j(Y))."""
    acc: dict[int, tuple[int, list[int]]] = {}
    for i, gx in x.items():
        for j, gy in y.items():
            rank, torsion = _tensor(gx, gy)
            r0, t0 = acc.get(i + j, (0, []))
            acc[i + j] = (r0 + rank, t0 + torsion)
            tor = [gcd(s, t) for s in gx[1] for t in gy[1]]
            r1, t1 = acc.get(i + j - 1, (0, []))
            acc[i + j - 1] = (r1, t1 + tor)
    return canonical(acc)


def after_cut(groups: dict, m: int, n: int) -> dict:
    """H*(Z(P_v)) from H*(Z(P)) by the cut decomposition, for any vertex v.

    Z(P_v) = W # (sum over j of C(m-n, j) copies of S^{j+2} x S^{m+n-j-1}),
    with W = boundary of (Z minus a disk) x D^2, so
    P_W(t) = P_Z(t)(1 + t) - t - t^{m+n}.
    """
    if any(t for _, t in groups.values()):
        raise ValueError("the cut formula here is rank-level; torsion-free bases only")
    b = {d: r for d, (r, _) in groups.items()}
    d = m + n
    ranks = {0: 1, d + 1: 1}
    for k in range(1, d + 1):
        ranks[k] = b.get(k, 0) + b.get(k - 1, 0) - (k == 1) - (k == d)
    for j in range(1, m - n + 1):
        for k in (j + 2, m + n - j - 1):
            ranks[k] += comb(m - n, j)
    return canonical({k: (r, ()) for k, r in ranks.items()})


def cut_sequence_closed_form(base: dict, m: int, n: int, cuts: int) -> dict:
    """Groups after ``cuts`` vertex cuts of a polytope with Z-groups ``base``."""
    for i in range(cuts):
        base = after_cut(base, m + i, n)
    return base
