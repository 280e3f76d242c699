"""Shared corpus generation for the test suite."""

import contextlib
import json
import signal

import numpy as np
import pytest
from hypothesis import settings

from tradegains import DiscreteDistribution, PiecewiseLinearDistribution, TradeInstance

# keep property-test runs reproducible across invocations
settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")

#: Scaling parameters 0.05, 0.10, ..., 0.95.
LAMBDA_GRID = tuple(i / 20 for i in range(1, 20))

#: Sugar objects whose numeric fields are not numbers.
NON_NUMBER_SUGAR = (
    {"kind": "uniform", "lo": "abc", "hi": 1},
    {"kind": "uniform", "lo": [1], "hi": 1},
    {"kind": "point", "value": None},
    # float() takes a numeric string and a bool, but neither is a number
    {"kind": "uniform", "lo": "0", "hi": 1},
    {"kind": "point", "value": True},
)


def random_discrete(rng, max_atoms=8, lo=0.0, hi=1.0):
    n = int(rng.integers(1, max_atoms + 1))
    values = np.unique(rng.uniform(lo, hi, n))
    probs = rng.dirichlet(np.ones(len(values)))
    return DiscreteDistribution.from_atoms(zip(values.tolist(), probs.tolist()))


def random_pwl(rng, knots):
    """Quantile knots evenly spaced in q with sorted uniform values."""
    return PiecewiseLinearDistribution.from_knots(
        zip(np.linspace(0.0, 1.0, knots).tolist(), np.sort(rng.uniform(0.0, 1.0, knots)).tolist())
    )


def strict_json(text):
    """``json.loads`` that refuses the non-JSON constants ``Infinity``, ``-Infinity`` and ``NaN``."""

    def refuse(name):
        raise ValueError(f"non-JSON constant {name}")

    return json.loads(text, parse_constant=refuse)


class _Overrun(BaseException):
    """Raised by the SIGALRM handler of :func:`budget`; no library handler catches it."""


@contextlib.contextmanager
def budget(seconds):
    """Fail the test if the body runs longer than ``seconds`` of wall time.

    A SIGALRM timer interrupts the body, so a call that never returns fails
    one test instead of stalling the run. Main thread only. The failure
    carries only its message: the interrupted traceback can hold frames
    without a line number, which pytest cannot format.
    """

    def expire(signum, frame):
        raise _Overrun

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    except _Overrun:
        raise pytest.fail.Exception(f"exceeded the {seconds} s budget", pytrace=False) from None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def random_discrete_instance(seed, max_atoms=8):
    rng = np.random.default_rng(seed)
    return TradeInstance(
        buyer=random_discrete(rng, max_atoms), seller=random_discrete(rng, max_atoms)
    )


@pytest.fixture(scope="session")
def corpus_small():
    """100 seeded discrete x discrete instances for module-level property tests."""
    return [random_discrete_instance(seed) for seed in range(100)]
