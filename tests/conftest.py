import numpy as np
import pytest

from hsalpha.eulerian import make_multipeakon
from hsalpha.projection import ProjectionConfig, project
from hsalpha.lagrangian import _breaking_times, to_lagrangian

# collected by test_acceptance, printed after the run so every criterion gets
# its own visible line regardless of output capture
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def peakon_datum():
    """Two-breakpoint datum: 1/2 on the left, ramp down to 0 over [0, 1/2]."""
    return make_multipeakon([(0.0, 0.5), (0.5, 0.0)])


@pytest.fixture(scope="session")
def peakon_state(peakon_datum):
    p = project(peakon_datum, ProjectionConfig(dx=0.25))
    return to_lagrangian(p, alpha=0.5)


def random_multipeakon(rng: np.random.Generator, n_cells: int = 10):
    """Random bounded-slope piecewise-linear datum for property tests."""
    widths = rng.uniform(0.2, 1.0, n_cells)
    xs = np.concatenate(([0.0], np.cumsum(widths))) + rng.uniform(-1.0, 1.0)
    slopes = rng.uniform(-2.0, 2.0, n_cells)
    vals = np.concatenate(([0.0], np.cumsum(slopes * widths))) + rng.uniform(-1.0, 1.0)
    return make_multipeakon(list(zip(xs, vals)))


def one_cell_tau(d_y: float, d_U: float) -> float:
    """The breaking time that lagrangian._breaking_times gives one cell."""
    return float(_breaking_times(np.array([d_y]), np.array([d_U]), np.empty(1))[0])
