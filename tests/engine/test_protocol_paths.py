"""Engine-routed protocol randomization vs the monolithic defaults.

The contract: for a fixed seed, a protocol's engine path produces the
same bytes whatever the chunk size (including the one-chunk
"monolithic engine" execution).
"""

import numpy as np
import pytest

from repro.clustering.algorithm import Clustering
from repro.protocols.clusters import RRClusters
from repro.protocols.independent import RRIndependent
from repro.protocols.joint import RRJoint


@pytest.fixture
def independent(small_schema):
    return RRIndependent(small_schema, p=0.65)


@pytest.fixture
def joint(small_schema):
    return RRJoint(small_schema, names=["flag", "color"], p=0.65)


@pytest.fixture
def clustered(small_schema):
    clustering = Clustering(
        schema=small_schema, clusters=(("flag", "level"), ("color",))
    )
    return RRClusters(clustering, p=0.65)


class TestIndependentEnginePath:
    def test_chunked_matches_monolithic_engine(self, independent, small_dataset):
        mono = independent.randomize(small_dataset, rng=3, chunk_size=10**9)
        for chunk_size in [13, 50, 200]:
            out = independent.randomize(
                small_dataset, rng=3, chunk_size=chunk_size
            )
            np.testing.assert_array_equal(mono.codes, out.codes)

    def test_default_path_unchanged_by_engine(self, independent, small_dataset):
        # The legacy sequential-generator path must stay byte-stable.
        a = independent.randomize(small_dataset, rng=3)
        b = independent.randomize(small_dataset, rng=3)
        np.testing.assert_array_equal(a.codes, b.codes)

    def test_workers_keyword_refused(self, independent, small_dataset):
        # Randomization runs in one process; there is no fan-out knob.
        with pytest.raises(TypeError, match="workers"):
            independent.randomize(
                small_dataset, rng=3, chunk_size=50, workers=2
            )


class TestJointEnginePath:
    def test_chunked_matches_monolithic_engine(self, joint, small_dataset):
        mono = joint.randomize(small_dataset, rng=5, chunk_size=10**9)
        chunked = joint.randomize(small_dataset, rng=5, chunk_size=31)
        np.testing.assert_array_equal(mono.codes, chunked.codes)

    def test_uncovered_attribute_untouched(self, joint, small_dataset):
        out = joint.randomize(small_dataset, rng=5, chunk_size=31)
        np.testing.assert_array_equal(
            out.column("level"), small_dataset.column("level")
        )


class TestClustersEnginePath:
    def test_chunked_matches_monolithic_engine(self, clustered, small_dataset):
        mono = clustered.randomize(small_dataset, rng=7, chunk_size=10**9)
        chunked = clustered.randomize(small_dataset, rng=7, chunk_size=19)
        np.testing.assert_array_equal(mono.codes, chunked.codes)
