"""Property tests: the compiled study tier is seed-for-seed identical to reference.

The ``lockstep-jit`` backend lowers the lockstep program interpreter into a
single fused slot loop.  Its contract is the same as every other tier's:
bit-identical results for every program protocol that lowers to compiled
tables (the paper's CJZ algorithm, its global-clock ablation, the two-channel
no-jamming variant — whose parameters have no spec recipe, so its tables
build uncached — windowed binary-exponential, sawtooth and polynomial
backoff) against the full arrival × jamming grid plus the
adaptive success chaser — including early stops and ``workers=4``
shared-memory shard merges.

numba is an optional dependency, so the suite pins the interpreter to its
pure-python mode (``REPRO_COMPILED_FORCE_PYTHON=1``): the same source
functions numba would compile run uncompiled, which keeps the equivalence
guarantee under test on machines without numba.  When numba *is* installed
the identical functions are exercised through the JIT by simply running this
suite without the pin (the CI numba leg does exactly that by also running
the compiled benchmarks).  A separate test proves ``REPRO_DISABLE_NUMBA=1``
demotes gracefully to the numpy lockstep kernel with identical results.
"""

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adversary import BatchArrivals, ComposedAdversary, RandomFractionJamming
from repro.core import cjz_factory
from repro.sim import run_trials
from repro.sim.backends.compiled import compiled_streams_ok, interpreter_mode
from test_property_lockstep import (
    adversary_builders,
    assert_studies_identical,
    lockstep_factories,
)


@pytest.fixture(autouse=True, scope="module")
def force_python_interpreter():
    """Pin the interpreter to pure-python mode unless numba is importable.

    With numba installed the suite runs through the real JIT (the stronger
    check); without it the pin keeps the interpreter path under test instead
    of demoting every study to the numpy lockstep kernel.
    """
    if interpreter_mode() == "numba":
        yield
        return
    previous = os.environ.get("REPRO_COMPILED_FORCE_PYTHON")
    os.environ["REPRO_COMPILED_FORCE_PYTHON"] = "1"
    try:
        yield
    finally:
        if previous is None:
            os.environ.pop("REPRO_COMPILED_FORCE_PYTHON", None)
        else:
            os.environ["REPRO_COMPILED_FORCE_PYTHON"] = previous


def _expected_backend() -> str:
    """What a ``lockstep-jit`` request reports: itself, or its demotion.

    ``REPRO_DISABLE_NUMBA=1`` in the surrounding environment (the CI
    fallback leg runs the whole suite under it) turns the interpreter off,
    so every request demotes to the numpy lockstep kernel — the equivalence
    assertions below then exercise the demotion path instead.
    """
    return "lockstep-jit" if interpreter_mode() != "off" else "lockstep"


class TestCompiledEquivalence:
    def test_stream_selftest_passes(self):
        """The interpreter's PCG64 port replays numpy's streams exactly."""
        if interpreter_mode() == "off":
            pytest.skip("interpreter disabled via REPRO_DISABLE_NUMBA")
        assert compiled_streams_ok() is True

    @settings(max_examples=12, deadline=None)
    @given(
        named_factory=lockstep_factories,
        named_adversary=adversary_builders(),
        horizon=st.integers(min_value=50, max_value=110),
        trials=st.integers(min_value=1, max_value=3),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_studies_identical(
        self, named_factory, named_adversary, horizon, trials, seed
    ):
        _, factory = named_factory
        _, adversary_factory = named_adversary

        def study(backend):
            return run_trials(
                protocol_factory=factory,
                adversary_factory=adversary_factory,
                horizon=horizon,
                trials=trials,
                seed=seed,
                backend=backend,
            )

        reference, compiled = study("reference"), study("lockstep-jit")
        assert all(r.backend == "reference" for r in reference)
        assert all(r.backend == _expected_backend() for r in compiled)
        assert_studies_identical(reference, compiled)

    @settings(max_examples=8, deadline=None)
    @given(
        named_factory=lockstep_factories,
        named_adversary=adversary_builders(),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_stop_when_drained_identical(
        self, named_factory, named_adversary, seed
    ):
        _, factory = named_factory
        _, adversary_factory = named_adversary

        def study(backend):
            return run_trials(
                protocol_factory=factory,
                adversary_factory=adversary_factory,
                horizon=220,
                trials=3,
                seed=seed,
                backend=backend,
                stop_when_drained=True,
            )

        assert_studies_identical(study("reference"), study("lockstep-jit"))

    @settings(max_examples=6, deadline=None)
    @given(
        named_adversary=adversary_builders(),
        seed=st.integers(min_value=0, max_value=2**16),
        trials=st.integers(min_value=4, max_value=7),
    )
    def test_workers_shard_merge_identical(self, named_adversary, seed, trials):
        """workers=4 compiled shards (shared-memory transport) match serial."""
        _, adversary_factory = named_adversary

        def study(workers, backend):
            return run_trials(
                protocol_factory=cjz_factory(),
                adversary_factory=adversary_factory,
                horizon=100,
                trials=trials,
                seed=seed,
                backend=backend,
                workers=workers,
            )

        serial_reference = study(1, "reference")
        parallel_compiled = study(4, "lockstep-jit")
        assert parallel_compiled.effective_workers == 4
        assert_studies_identical(serial_reference, parallel_compiled)

    @settings(max_examples=6, deadline=None)
    @given(
        named_factory=lockstep_factories,
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_auto_selects_compiled_tier(self, named_factory, seed):
        """``auto`` routes eligible feedback studies through the compiled tier."""
        _, factory = named_factory

        def study(backend):
            return run_trials(
                protocol_factory=factory,
                adversary_factory=lambda: ComposedAdversary(
                    BatchArrivals(10), RandomFractionJamming(0.3)
                ),
                horizon=90,
                trials=8,
                seed=seed,
                backend=backend,
            )

        auto = study("auto")
        assert all(r.backend == _expected_backend() for r in auto)
        assert_studies_identical(study("reference"), auto)


class TestNumbaDisabledFallback:
    @pytest.fixture(autouse=True, scope="class")
    def disable_numba(self):
        """``REPRO_DISABLE_NUMBA`` wins over everything, numba installed or not."""
        previous = os.environ.get("REPRO_DISABLE_NUMBA")
        os.environ["REPRO_DISABLE_NUMBA"] = "1"
        try:
            yield
        finally:
            if previous is None:
                os.environ.pop("REPRO_DISABLE_NUMBA", None)
            else:
                os.environ["REPRO_DISABLE_NUMBA"] = previous

    def test_kill_switch_turns_interpreter_off(self):
        assert interpreter_mode() == "off"

    @settings(max_examples=6, deadline=None)
    @given(
        named_factory=lockstep_factories,
        named_adversary=adversary_builders(),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_demotes_to_numpy_lockstep_with_identical_results(
        self, named_factory, named_adversary, seed
    ):
        """A ``lockstep-jit`` request still runs — on the numpy kernel."""
        _, factory = named_factory
        _, adversary_factory = named_adversary

        def study(backend):
            return run_trials(
                protocol_factory=factory,
                adversary_factory=adversary_factory,
                horizon=90,
                trials=2,
                seed=seed,
                backend=backend,
            )

        demoted = study("lockstep-jit")
        assert all(r.backend == "lockstep" for r in demoted)
        assert_studies_identical(study("reference"), demoted)
        assert_studies_identical(study("lockstep"), demoted)
