import os

import numpy as np
import pytest

from actris.channel import ScenarioConfig
from actris.circuit import CircuitParams, fig2_params
from actris.reflection import ElementFits, fit_amplitude_model

PAPER_SCALE = os.environ.get("ACTRIS_PAPER_SCALE", "") not in ("", "0")


def desk_scenario(**overrides):
    """Shrunk reference scenario used by the slower statistical tests."""
    base = dict(m_t=4, m_r=4, d=4, n=16, n_act=16, p_ris_w=0.375)
    base.update(overrides)
    return ScenarioConfig(**base).with_rho_db(-30.0)


@pytest.fixture(scope="session")
def params_va():
    """Reference unit-cell hardware (diode ohmic resistance 1.5 ohm)."""
    return CircuitParams()


@pytest.fixture(scope="session")
def params_fig2():
    """Softer-diode hardware used for the amplitude-bound study."""
    return fig2_params()


@pytest.fixture(scope="session")
def active_fit(params_va):
    return fit_amplitude_model(params_va, "active")


@pytest.fixture(scope="session")
def passive_fit(params_va):
    return fit_amplitude_model(params_va, "passive")


@pytest.fixture(scope="session")
def fits_all_active(params_va, active_fit, passive_fit):
    return ElementFits.from_classes(active_fit, passive_fit, np.ones(16, dtype=bool))


@pytest.fixture(scope="session")
def scenario_desk():
    return desk_scenario()


def pytest_collection_modifyitems(config, items):
    if PAPER_SCALE:
        return
    skip = pytest.mark.skip(reason="paper-scale run disabled (set ACTRIS_PAPER_SCALE=1)")
    for item in items:
        if "paper_scale" in item.keywords:
            item.add_marker(skip)


def pytest_terminal_summary(terminalreporter):
    try:
        from test_acceptance import ACCEPTANCE_LOG
    except ImportError:
        return
    if ACCEPTANCE_LOG:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LOG:
            terminalreporter.write_line(line)
