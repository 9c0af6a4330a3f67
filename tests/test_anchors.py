"""Literature anchors at low dimension: closed forms from the Chern numbers
of a smooth degree-d hypersurface, written here without package code.

For a surface X of degree d in P^3, c(T_X) = (1 + h)^4 / (1 + dh) with
h^2 = d, so c_1^2 = d(d - 4)^2 and c_2 = d(d^2 - 4d + 6).  Order-2 jets carry
Demailly's leading term 13 c_1^2 - 9 c_2 ("Algebraic criteria for Kobayashi
hyperbolic projective varieties and jet differentials", 1997).
"""

from math import comb

import pytest

from jetres.exactalg import DPoly, MultiPoly, Q
from jetres.ggl import euler_characteristic
from jetres.localization import integral_over_tower_fixed_points, payload_integral_fixed_points
from jetres.residue import integral_over_tower, tower_context

C1_SQUARED = DPoly([0, 16, -8, 1])  # d(d - 4)^2
C2 = DPoly([0, 6, -4, 1])  # d(d^2 - 4d + 6)
DEMAILLY = C1_SQUARED * 13 + C2 * -9  # 13 c_1^2 - 9 c_2 = 4d^3 - 68d^2 + 154d


def test_order_two_jets_carry_demailly_s_leading_term():
    # the integral of (2 z_1 + z_2)^4 over X_2 is 3 (13 c_1^2 - 9 c_2)
    expected = DEMAILLY * 3
    assert expected == DPoly([0, 462, -204, 12])
    blocks = [DPoly([1]), DPoly([]), DPoly([])]  # c_1^4 for c_1 = 2 z_1 + z_2
    assert integral_over_tower_fixed_points(2, 2, (2, 1), blocks) == expected
    ctx = tower_context(2)
    z1, z2 = MultiPoly.variable(ctx, "z1"), MultiPoly.variable(ctx, "z2")
    assert integral_over_tower(2, 2, (2 * z1 + z2) ** 4) == expected


def _interpolate(points):
    """The coefficients, lowest first, of the polynomial in r of degree below
    len(points) through the points (r_i, y_i), for DPoly values y_i."""
    out = [DPoly([])] * len(points)
    for ri, yi in points:
        basis = [Q(1)]  # prod over j != i of (r - r_j) / (r_i - r_j)
        for rj, _ in points:
            if rj != ri:
                shifted = zip([Q(0)] + basis, basis + [Q(0)])
                basis = [(prev - rj * here) / (ri - rj) for prev, here in shifted]
        out = [o + yi * c for o, c in zip(out, basis)]
    return out


def test_euler_characteristic_along_2r_r_is_quartic_in_r():
    # chi(X_2, O(-2r, -r)) is a quartic in r: its r^4 term is the top
    # degree of ch, (2 z_1 + z_2)^4 / 4!, and its r^0 term chi(O_X)
    coeffs = _interpolate([(r, euler_characteristic(2, 2, (2 * r, r))) for r in range(1, 6)])
    for r in (0, 6, 7):
        value = DPoly([])
        for m, c in enumerate(coeffs):
            value = value + c * r**m
        assert euler_characteristic(2, 2, (2 * r, r)) == value
    assert coeffs[4] == DEMAILLY * Q(1, 8) == DPoly([0, Q(77, 4), Q(-34, 4), Q(2, 4)])
    # Noether's formula: chi(O_X) = (c_1^2 + c_2) / 12
    assert coeffs[0] == (C1_SQUARED + C2) * Q(1, 12) == DPoly([0, 11, -6, 1]) * Q(1, 6)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_first_level_top_power_is_the_segre_class(n):
    # z_1^(2n-1) pushes forward to s_n(T_X), and s(T_X) = (1 + dh)(1 + h)^-(n+2)
    # with h^n = d on X: d [h^n] of (1 + dh)(1 + h)^-(n+2)
    expected = DPoly([0, (-1) ** n * comb(2 * n + 1, n), (-1) ** (n - 1) * comb(2 * n, n - 1)])
    ctx = tower_context(1)
    P = MultiPoly.variable(ctx, "z1") ** (2 * n - 1)
    assert integral_over_tower(n, 1, P) == expected
    assert payload_integral_fixed_points(n, 1, P) == expected
    if n == 2:
        assert expected == DPoly([0, 10, -4])
