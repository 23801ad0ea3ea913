"""IR-drop network: global/local split, coupling, worst-core behavior."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import PdnConfig
from repro.floorplan import Floorplan
from repro.pdn import IrDropNetwork
from repro.pdn.backends import backend_names, get_backend


@pytest.fixture
def network(pdn_config):
    return IrDropNetwork(pdn_config, Floorplan(8))


class TestSharedDrop:
    def test_proportional_to_total_current(self, network, pdn_config):
        assert network.shared_drop(100.0) == pytest.approx(
            pdn_config.r_ir_shared * 100.0
        )

    def test_rejects_negative_current(self, network):
        with pytest.raises(ValueError):
            network.shared_drop(-1.0)


class TestLocalDrops:
    def test_own_current_sees_full_branch(self, network, pdn_config):
        currents = [0.0] * 8
        currents[0] = 10.0
        drops = network.local_drops(currents)
        assert drops[0] == pytest.approx(pdn_config.r_ir_local * 10.0)

    def test_neighbour_feels_coupled_fraction(self, network, pdn_config):
        currents = [0.0] * 8
        currents[0] = 10.0
        drops = network.local_drops(currents)
        expected = pdn_config.r_ir_local * 10.0 * pdn_config.ir_neighbour_coupling
        assert drops[1] == pytest.approx(expected)
        assert drops[4] == pytest.approx(expected)

    def test_far_core_feels_less_than_neighbour(self, network):
        currents = [0.0] * 8
        currents[0] = 10.0
        drops = network.local_drops(currents)
        assert drops[7] < drops[1]

    def test_superposition(self, network):
        a = [10.0, 0, 0, 0, 0, 0, 0, 0]
        b = [0, 0, 0, 0, 0, 0, 0, 10.0]
        both = [10.0, 0, 0, 0, 0, 0, 0, 10.0]
        da = network.local_drops(a)
        db = network.local_drops(b)
        dboth = network.local_drops(both)
        for i in range(8):
            assert dboth[i] == pytest.approx(da[i] + db[i])

    def test_rejects_wrong_length(self, network):
        with pytest.raises(ValueError):
            network.local_drops([1.0] * 3)

    def test_rejects_negative_currents(self, network):
        with pytest.raises(ValueError):
            network.local_drops([-1.0] + [0.0] * 7)


class TestCoreDrops:
    def test_combines_shared_and_local(self, network):
        currents = [5.0] * 8
        shared = network.shared_drop(40.0)
        locals_ = network.local_drops(currents)
        total = network.core_drops(currents)
        for i in range(8):
            assert total[i] == pytest.approx(shared + locals_[i])

    def test_center_cores_worst_under_uniform_load(self, network):
        """Middle-column cores see more coupled current than corners."""
        drops = network.core_drops([5.0] * 8)
        assert max(drops[1], drops[2]) > drops[0]

    def test_worst_drop_is_max(self, network):
        currents = [5.0] * 8
        assert network.worst_drop(currents) == max(network.core_drops(currents))

    def test_activating_a_core_raises_its_own_drop_most(self, network):
        base = network.core_drops([5.0, 0, 0, 0, 0, 0, 0, 0])
        more = network.core_drops([5.0, 0, 0, 0, 0, 0, 0, 5.0])
        increases = [m - b for m, b in zip(more, base)]
        assert increases[7] == max(increases)


#: Zero, tiny (subnormal up to micro-amp), socket-scale and huge currents.
_CURRENTS = (
    st.just(0.0)
    | st.floats(min_value=0.0, max_value=1e-6)
    | st.floats(min_value=0.0, max_value=60.0)
    | st.floats(min_value=1e3, max_value=1e300)
)


class TestCoupledMatchesMatrixProduct:
    """The fixed point's unchecked ``coupled`` is, to the bit, the matrix
    product ``local_drops`` was defined by, on every backend's matrix."""

    @settings(max_examples=300, deadline=None)
    @given(
        backend=st.sampled_from(backend_names()),
        currents=st.integers(min_value=1, max_value=24).flatmap(
            lambda n: st.lists(_CURRENTS, min_size=n, max_size=n)
        ),
    )
    def test_equals_matmul_of_the_array(self, backend, currents):
        config = get_backend(backend).effective_config(PdnConfig())
        network = IrDropNetwork(config, Floorplan(len(currents)))
        expected = network._local_matrix @ np.asarray(currents, dtype=float)
        assert network.coupled(currents) == expected.tolist()
        assert network.local_drops(currents) == expected.tolist()
