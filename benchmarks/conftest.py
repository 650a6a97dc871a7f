"""Benchmark-suite configuration.

Every file ``bench_eXX_*.py`` regenerates one experiment of the paper (see
README.md's "CLI tour" and "Layout" sections; ``python -m repro
experiments list`` names them) and times its computational core with
pytest-benchmark.  The printed rows/series themselves come from
``python -m repro.experiments <id>``; each benchmark stores the headline
measured values in ``benchmark.extra_info`` so they appear in the saved
benchmark JSON as well.

The ``bench_*`` suites with ``run_benchmark`` entry points (engine,
incremental, obs, serve, semiring, columnar) additionally take a
``bench_seed`` fixture so every workload generator is seeded
deterministically: the
``--bench-seed`` pytest option wins, then the ``REPRO_BENCH_SEED``
environment variable, then 0.  Deterministic seeds are what make the
count-valued records in the unified bench schema
(:mod:`repro.obs.history`) exactly comparable across runs and machines.
"""

import os

import pytest

collect_ignore_glob: list[str] = []

#: Environment fallback for the workload seed (CI sets neither and gets 0).
SEED_ENV_VAR = "REPRO_BENCH_SEED"


def pytest_addoption(parser):
    parser.addoption(
        "--bench-seed",
        type=int,
        default=None,
        help="seed for benchmark workload generators "
        f"(default: ${SEED_ENV_VAR} or 0)",
    )


@pytest.fixture
def bench_seed(request) -> int:
    """The deterministic seed every benchmark workload generator uses."""
    option = request.config.getoption("--bench-seed", default=None)
    if option is not None:
        return int(option)
    return int(os.environ.get(SEED_ENV_VAR, "0"))
