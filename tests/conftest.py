import os

import numpy as np
import pytest

import gradjump as gj

#: two-well reference parameters used throughout: stiff phase stable inside
#: |F| <= 1, soft phase outside |F| >= 2, relaxed branch 2|F| - 1 between
REF_PARAMS = dict(mu_plus=2.0, mu_minus=1.0, w_plus=0.0, w_minus=1.0)


@pytest.fixture(autouse=True)
def no_child_left():
    """Fail a test that leaves a forked child running or unreaped."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:  # no child at all
        return
    pytest.fail(f"the test left a child process {'running' if pid == 0 else 'unreaped'}")


@pytest.fixture
def antiplane():
    return gj.AntiplaneDoubleWell(gj.AntiplaneParams(**REF_PARAMS))


@pytest.fixture
def eq_pair():
    # Maxwell pair: both phase stresses equal 2 e1, all driving forces vanish
    return gj.InterfacePair.from_gradients([[1.0, 0.0]], [[2.0, 0.0]])


@pytest.fixture
def noneq_pair():
    # off-equilibrium: N = 0.24, p* = 0.10 by hand substitution
    return gj.InterfacePair.from_gradients([[1.0, 0.0]], [[2.2, 0.0]])


@pytest.fixture
def quadratic():
    return gj.QuadraticEnergy(1, 2, mu=1.0)


class ValueOnlyQuadratic(gj.EnergyModel):
    """W(F) = |F|^2 / 2 through value() alone, so that every other method is
    the base class's: the value_many loop, the central-difference gradient,
    the stack-form rank_one_excess and the grid rank_one_minimum."""

    kind = "value_only_quadratic"

    def value(self, f) -> float:
        f = self._check(f)
        return 0.5 * float(np.sum(f * f))


def small_quad(seed=0, bulk=2048, slab=8192, sampler="rqmc"):
    return gj.QuadratureConfig(
        seed=seed, samples_bulk=bulk, samples_slab=slab, sampler=sampler
    )


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
