import pytest

from qsdp.quantum import dps_test, werner_state


@pytest.fixture(scope="session")
def dps_k3():
    """The DPS k = 3 solve (ModelResult): SVD elimination leaves its
    constraint rows ~94 % full, so every block takes the dense kernels."""
    return dps_test(werner_state(0.25), (2, 2), k=3).model_result
