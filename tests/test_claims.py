"""The claims ledger: one test per claim of the paper's abstract.

Each test pins the evidence the toolkit has for its claim today, as README's
"Claims ledger" section states it, so a change that moves that evidence shows
here.  The full-correlation floor used in (a) and (b) is Zukowski & Brukner
(PRL 88, 210401, 2002): a state whose two-setting full correlations T satisfy
sum T^2 <= 1 in every choice of local planes violates no full-correlation
(homogeneous) inequality with dichotomic inputs and outputs.  A Werner state
at visibility v has correlations v T, and N = sum of <sigma_k>^2 over all
3^m Pauli strings k in {X, Y, Z}^m bounds every plane's sum, so no such
inequality detects it for v <= 1/sqrt(N).
"""

import functools
import itertools
import math

import numpy as np
import pytest

from bellwerner import block, builtin, composite_ratio_upper, lhv_bound, seesaw_lower
from bellwerner.werner import (
    _pair_bound_root,
    exact_pair_fraction,
    ghz_amplitudes,
    ghz_separability_threshold,
    measure_lower_bound,
    separability_upper_bound,
)

_PAULIS = [np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]), np.diag([1, -1])]


def pauli_sum(vec: np.ndarray) -> float:
    """N: the sum of <psi|sigma_k|psi>^2 over the 3^m Pauli strings k."""
    parties = vec.shape[0].bit_length() - 1
    return sum(
        abs(np.vdot(vec, functools.reduce(np.kron, ops) @ vec)) ** 2
        for ops in itertools.product(_PAULIS, repeat=parties)
    )


def ghz_pauli_sum(parties: int, theta: float) -> float:
    """N for cos(theta)|0...0> + sin(theta)|1...1>: z^2 + 2^(m-1) sin^2(2 theta)."""
    z = math.cos(theta) ** 2 + (-1) ** parties * math.sin(theta) ** 2  # <Z...Z>
    return z * z + 2 ** (parties - 1) * math.sin(2 * theta) ** 2


def certified(vec: np.ndarray) -> bool:
    """An entangled band no full-correlation inequality detects: above the pairwise
    separability bound, at or below the floor 1/sqrt(N)."""
    return separability_upper_bound(vec) < 1 / math.sqrt(pauli_sum(vec))


@pytest.mark.parametrize("parties", [3, 4])
def test_ghz_pauli_sum_matches_the_closed_form(parties):
    for theta in (0.3, 0.6, 1.2):
        n = pauli_sum(ghz_amplitudes(parties, theta))
        assert n == pytest.approx(ghz_pauli_sum(parties, theta), rel=1e-14)


def test_claim_a_ghz_werner_states_have_an_undetectable_entangled_band():
    # every GHZ state of the grid is entangled above its exact separability threshold
    # and undetectable by full-correlation inequalities up to 1/sqrt(N)
    thetas = np.linspace(0.0, math.pi / 2, 42)[1:-1]
    for parties in range(2, 9):
        for theta in thetas:
            floor = 1 / math.sqrt(ghz_pauli_sum(parties, float(theta)))
            assert ghz_separability_threshold(parties, float(theta)) < floor


def test_claim_b_one_pure_state_is_certified_and_one_is_not():
    ghz = ghz_amplitudes(4, 0.6)
    assert ghz_separability_threshold(4, 0.6) == pytest.approx(0.118, abs=5e-4)
    assert separability_upper_bound(ghz) == pytest.approx(0.135, abs=5e-4)
    assert 1 / math.sqrt(pauli_sum(ghz)) == pytest.approx(0.355, abs=5e-4)
    assert certified(ghz)
    # the first Haar-random four-qubit state at seed 1: its pairwise bound 0.516 lies above
    # its floor 0.478, so these tools certify no undetectable band for it
    rng = np.random.default_rng(1)
    haar = rng.normal(size=16) + 1j * rng.normal(size=16)
    haar /= np.linalg.norm(haar)
    assert separability_upper_bound(haar) == pytest.approx(0.516, abs=5e-4)
    assert 1 / math.sqrt(pauli_sum(haar)) == pytest.approx(0.478, abs=5e-4)
    assert not certified(haar)


def test_claim_c_mermin5_exceeds_the_composite_ratio():
    # MERMIN(5) is one block (gamma_1 = 1, the others empty), so the composite ratio is
    # sqrt(3) + 1; the see-saw reaches the full-correlation maximum 2^((5-1)/2) = 4 times c1
    # (Werner & Wolf, PRA 64, 032112, 2001)
    expr = builtin("MERMIN(5)")
    assert block(expr, 1) == expr
    c1 = lhv_bound(expr).value
    ratio = seesaw_lower(expr, restarts=1).value / c1
    composite = composite_ratio_upper([1.0] + [math.inf] * 4)
    assert composite == pytest.approx(2.732, abs=5e-4)
    assert ratio == pytest.approx(4.0, rel=1e-12)
    assert ratio > composite


def test_claim_d_poly_star_of_three_is_four_sqrt_two_minus_one():
    # measure_lower_bound bounds the exact share from below only up to poly*(m); at m = 3
    # both meet at poly*(3), where c^2 = 1/2 and each is 1/16, a nonzero measure
    poly = 8 * math.sqrt(_pair_bound_root(3)) - 1
    assert poly == 4 * math.sqrt(2) - 1
    assert measure_lower_bound(3, poly) == pytest.approx(1 / 16, rel=1e-12)
    assert exact_pair_fraction(3, poly) == pytest.approx(1 / 16, rel=1e-12)
    assert 0.0 < measure_lower_bound(3, 3.0) < exact_pair_fraction(3, 3.0)
