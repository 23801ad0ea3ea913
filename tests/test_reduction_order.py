"""``pairwise_sum`` reduces in exactly numpy's order.

The socket's fixed point sums per-core currents and averages per-core
voltages in plain Python, replicating the pairwise reduction numpy's
``np.sum``/``np.mean`` perform, because the operating-point cache and the
fleet event-log SHA-256 were pinned against numpy's rounding.  A numpy
build that reduces in another order (a new unroll width, a SIMD sum)
must fail here, loudly, instead of silently moving every digest.
"""

import numpy as np
import pytest

from repro.pdn.delivery import pairwise_sum

#: Draws per width; widths 1-64 cover every sequential tail length
#: around one to eight unrolled blocks.
DRAWS = 400


def _draws(rng, width):
    """Current-like, voltage-like and mixed-sign vectors of one width."""
    for i in range(DRAWS):
        if i % 3 == 0:
            yield rng.uniform(0.0, 30.0, width)
        elif i % 3 == 1:
            yield rng.uniform(0.7, 1.3, width)
        else:
            yield rng.standard_normal(width) * 10.0 ** rng.integers(-6, 6, width)


@pytest.mark.parametrize("width", range(1, 65))
def test_sum_and_mean_match_numpy(width):
    rng = np.random.default_rng(width)
    for values in _draws(rng, width):
        floats = values.tolist()
        assert pairwise_sum(floats) == float(np.sum(values))
        assert pairwise_sum(floats) / width == float(np.mean(values))
        assert pairwise_sum(floats) == float(np.sum(floats))


@pytest.mark.parametrize("width", [129, 200, 300, 1000])
def test_recursive_split_matches_numpy(width):
    rng = np.random.default_rng(width)
    for _ in range(50):
        values = rng.uniform(0.0, 30.0, width)
        assert pairwise_sum(values.tolist()) == float(np.sum(values))


def test_the_order_matters_at_socket_width():
    """At eight cores Python's sequential ``sum`` rounds differently on
    a large share of inputs, so the replica is not a no-op."""
    rng = np.random.default_rng(8)
    differ = sum(
        sum(v) != pairwise_sum(v)
        for v in (rng.uniform(0.0, 30.0, 8).tolist() for _ in range(2000))
    )
    assert differ > 100


@pytest.mark.parametrize("width", [0, 1, 7, 8, 9, 130])
def test_signed_zeros_match_numpy(width):
    for values in ([-0.0] * width, [0.0, -0.0] * width):
        assert repr(pairwise_sum(values)) == repr(float(np.sum(values)))
