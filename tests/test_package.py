"""Package-level tests: API surface, import cost, exceptions, RNG helper."""

import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import repro
from repro._rng import ensure_rng, spawn_rngs
from repro.exceptions import (
    ClusteringError,
    DatasetError,
    DomainError,
    EstimationError,
    MatrixError,
    PrivacyError,
    ProtocolError,
    QueryError,
    ReproError,
    SchemaError,
    SecureSumError,
    SeedError,
)


class TestPublicApi:
    def test_all_names_resolvable(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"{name} in __all__ but missing"

    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_subpackage_alls_resolvable(self):
        import repro.analysis
        import repro.clustering
        import repro.core
        import repro.data
        import repro.mpc
        import repro.protocols

        for module in (
            repro.analysis, repro.clustering, repro.core,
            repro.data, repro.mpc, repro.protocols,
        ):
            for name in module.__all__:
                assert hasattr(module, name), f"{module.__name__}.{name}"


class TestImportCost:
    # scipy.stats costs about a second to import; the serving path never
    # calls it, so only the functions that need it may load it.
    # multiprocessing (~7.5 ms) has no user in the package at all.
    SCRIPT = textwrap.dedent(
        """
        import sys

        import numpy as np

        import repro, repro.cli, repro.service.net

        def scipy_loaded():
            return sorted(
                m for m in sys.modules
                if m == "scipy" or m.startswith("scipy.")
            )

        assert not scipy_loaded(), scipy_loaded()[:5]
        assert "multiprocessing" not in sys.modules
        from repro.analysis.intervals import marginal_confidence_intervals
        from repro.core.errors import chi_square_b
        matrix = repro.keep_else_uniform_matrix(3, 0.7)
        intervals = marginal_confidence_intervals(
            matrix, np.array([0.5, 0.3, 0.2]), 1000
        )
        assert len(intervals) == 3
        assert all(ci.lower < ci.estimate < ci.upper for ci in intervals)
        assert 7.8 < chi_square_b(10) < 8.0
        assert "scipy.stats" in sys.modules
        """
    )

    def test_serving_imports_do_not_load_scipy(self):
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH", "")) if p
        )
        result = subprocess.run(
            [sys.executable, "-c", self.SCRIPT],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr


class TestExceptionHierarchy:
    @pytest.mark.parametrize(
        "exc",
        [
            SchemaError, DomainError, DatasetError, MatrixError,
            EstimationError, PrivacyError, ClusteringError, ProtocolError,
            QueryError, SecureSumError,
        ],
    )
    def test_all_derive_from_repro_error(self, exc):
        assert issubclass(exc, ReproError)
        with pytest.raises(ReproError):
            raise exc("boom")

    def test_single_except_catches_library_errors(self):
        # the reason the hierarchy exists: one clause for everything
        try:
            repro.keep_else_uniform_matrix(3, 0.0)
        except ReproError:
            pass
        else:
            pytest.fail("expected a ReproError")


class TestEnsureRng:
    def test_none_gives_generator(self):
        assert isinstance(ensure_rng(None), np.random.Generator)

    def test_int_seed_deterministic(self):
        a = ensure_rng(42).integers(0, 1000, 10)
        b = ensure_rng(42).integers(0, 1000, 10)
        np.testing.assert_array_equal(a, b)

    def test_generator_passthrough(self):
        generator = np.random.default_rng(1)
        assert ensure_rng(generator) is generator

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            ensure_rng(-1)

    def test_bad_type_rejected(self):
        with pytest.raises(TypeError, match="rng must be"):
            ensure_rng("seed")

    def test_numpy_integer_accepted(self):
        assert isinstance(ensure_rng(np.int64(7)), np.random.Generator)


class TestSeedCheck:
    """One seed check for both randomize paths, one typed error."""

    @pytest.fixture(scope="class")
    def protocol_and_data(self):
        data = repro.synthesize_adult(n=50, rng=0)
        return repro.RRIndependent(data.schema, p=0.7), data

    @pytest.mark.parametrize("chunk_size", [None, 16])
    def test_negative_seed_is_typed_on_every_path(
        self, protocol_and_data, chunk_size
    ):
        protocol, data = protocol_and_data
        with pytest.raises(SeedError, match="non-negative") as info:
            protocol.randomize(data, -1, chunk_size=chunk_size)
        assert isinstance(info.value, ReproError)
        assert isinstance(info.value, ValueError)


class TestConsoleScripts:
    def test_every_documented_prog_is_declared(self):
        """Each ``prog=`` a parser under ``src/repro`` names is a command
        ``setup.py`` installs."""
        root = Path(repro.__file__).resolve().parent
        progs = {
            match.split()[0]
            for path in root.rglob("*.py")
            for match in re.findall(r'prog="([^"]+)"', path.read_text())
        }
        setup = (root.parents[1] / "setup.py").read_text()
        declared = set(re.findall(r'"([\w-]+)=repro[\w.]*:\w+"', setup))
        assert progs and progs <= declared, sorted(progs - declared)


class TestSpawnRngs:
    def test_count_and_independence(self):
        streams = spawn_rngs(0, 5)
        assert len(streams) == 5
        draws = [s.integers(0, 2**31) for s in streams]
        assert len(set(int(d) for d in draws)) == 5  # wildly unlikely clash

    def test_deterministic_given_seed(self):
        a = [s.integers(0, 1000) for s in spawn_rngs(9, 3)]
        b = [s.integers(0, 1000) for s in spawn_rngs(9, 3)]
        assert a == b

    def test_zero_count(self):
        assert spawn_rngs(0, 0) == []

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            spawn_rngs(0, -1)


class TestDocstrings:
    def test_every_public_module_documented(self):
        import importlib
        import pkgutil

        import repro as package

        for info in pkgutil.walk_packages(
            package.__path__, prefix="repro."
        ):
            if info.name.split(".")[-1].startswith("_"):
                continue
            module = importlib.import_module(info.name)
            assert module.__doc__, f"{info.name} lacks a module docstring"

    def test_public_protocol_classes_documented(self):
        for cls in (
            repro.RRIndependent, repro.RRJoint, repro.RRClusters,
            repro.Dataset, repro.Schema, repro.Domain,
            repro.ConstantDiagonalMatrix, repro.StreamingCollector,
        ):
            assert cls.__doc__, f"{cls.__name__} lacks a docstring"
