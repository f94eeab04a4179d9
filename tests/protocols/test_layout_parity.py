"""Byte oracle for the protocols' randomize and estimate paths.

Every protocol is a collection layout (release units over the schema)
plus one matrix per unit, and its sampler and Eq. (2) estimates are
functions of exactly that. This module pins SHA-256 digests of the
released codes and of every estimate for each protocol shape:

* RR-Independent with keep-else-uniform matrices, and with explicit
  dense matrices (the dense inverse-CDF sampler and the linear solve);
* RR-Joint over every attribute, and over a two-attribute sub-domain
  (the uncovered columns must come back untouched);
* RR-Clusters with a fused unit between two singletons, listed out of
  schema order.

The digests were captured once and must never change: any refactor of
how protocols randomize, count or invert has to reproduce these bytes.
Set frequencies are compared as floats with ``rel=1e-12`` instead,
because summing per-cell products may round differently in the last
ulp depending on whether the sum is a Python loop or a vectorised
``sum`` (a measured 5.6e-17 absolute difference on one cell set).
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.clustering.algorithm import Clustering
from repro.data.dataset import Dataset
from repro.data.schema import NOMINAL, Attribute, Schema
from repro.protocols import RRClusters, RRIndependent, RRJoint

SEED = 11
CHUNK_SIZE = 37


def _schema() -> Schema:
    return Schema(
        [
            Attribute("flag", ("no", "yes"), NOMINAL),
            Attribute("level", ("low", "mid", "high"), NOMINAL),
            Attribute("color", ("red", "green", "blue", "gray"), NOMINAL),
            Attribute("size", ("xs", "s", "m", "l", "xl"), NOMINAL),
        ]
    )


def _dataset(schema: Schema) -> Dataset:
    rng = np.random.default_rng(2024)
    n = 600
    flag = rng.integers(0, 2, n)
    level = rng.integers(0, 3, n)
    color = np.where(rng.random(n) < 0.6, level, rng.integers(0, 4, n))
    size = np.where(rng.random(n) < 0.5, flag * 2, rng.integers(0, 5, n))
    return Dataset(schema, np.stack([flag, level, color, size], axis=1))


def _dense_matrix(size: int) -> np.ndarray:
    """A non-symmetric, non-constant-diagonal row-stochastic matrix."""
    i, j = np.indices((size, size))
    weights = 1.0 + (i * 3 + j * 7) % 5 + 6.0 * (i == j)
    return weights / weights.sum(axis=1, keepdims=True)


def _protocols(schema: Schema) -> dict:
    return {
        "independent": RRIndependent(schema, p=0.6),
        "independent-dense": RRIndependent(
            schema,
            matrices={attr.name: _dense_matrix(attr.size) for attr in schema},
        ),
        "joint": RRJoint(schema, p=0.6),
        "joint-sub": RRJoint(schema, names=["flag", "color"], p=0.6),
        "clusters": RRClusters(
            Clustering(
                schema=schema,
                clusters=(("size",), ("level", "color"), ("flag",)),
            ),
            p=0.6,
        ),
    }


#: One pair per protocol: across units for RR-Independent, within the
#: fused unit for the others.
PAIRS = {
    "independent": ("level", "size"),
    "independent-dense": ("color", "flag"),
    "joint": ("color", "size"),
    "joint-sub": ("color", "flag"),
    "clusters": ("color", "level"),
}

SET_QUERIES = {
    "independent": (("flag", "level", "size"), [[0, 1, 2], [1, 2, 4], [1, 0, 0]]),
    "independent-dense": (("color", "flag"), [[0, 0], [3, 1], [2, 1]]),
    "joint": (("size", "level", "flag"), [[0, 1, 0], [4, 2, 1]]),
    "joint-sub": (("flag", "color"), [[0, 0], [1, 3], [1, 1]]),
    "clusters": (("flag", "color", "level"), [[0, 1, 1], [1, 2, 0], [1, 3, 2]]),
}


def _digest(*arrays) -> str:
    hasher = hashlib.sha256()
    for array in arrays:
        array = np.ascontiguousarray(array)
        assert array.dtype in (np.int64, np.float64), array.dtype
        hasher.update(f"{array.dtype.str}{array.shape}".encode())
        hasher.update(array.tobytes())
    return hasher.hexdigest()


def observed_digests() -> dict:
    """``{"<protocol>/<output>": sha256}`` over every pinned output."""
    schema = _schema()
    data = _dataset(schema)
    out = {}
    for key, protocol in _protocols(schema).items():
        released = protocol.randomize(data, rng=SEED)
        chunked = protocol.randomize(data, rng=SEED, chunk_size=CHUNK_SIZE)
        out[f"{key}/randomize"] = _digest(released.codes)
        out[f"{key}/randomize-chunked"] = _digest(chunked.codes)
        names = protocol.collection.member_names
        for repair in ("clip", "none"):
            out[f"{key}/marginals-{repair}"] = _digest(
                *(
                    protocol.estimate_marginal(released, name, repair)
                    for name in names
                )
            )
        out[f"{key}/pair-table"] = _digest(
            protocol.estimate_pair_table(released, *PAIRS[key])
        )
        if isinstance(protocol, RRJoint):
            for repair in ("clip", "none"):
                out[f"{key}/joint-{repair}"] = _digest(
                    protocol.estimate_joint(released, repair)
                )
        if isinstance(protocol, RRClusters):
            for repair in ("clip", "none"):
                out[f"{key}/cluster-joints-{repair}"] = _digest(
                    *protocol.estimate(released, repair).joints
                )
    return out


def observed_set_frequencies() -> dict:
    schema = _schema()
    data = _dataset(schema)
    out = {}
    for key, protocol in _protocols(schema).items():
        released = protocol.randomize(data, rng=SEED)
        names, cells = SET_QUERIES[key]
        out[key] = protocol.estimate_set_frequency(
            released, names, np.array(cells)
        )
    return out


GOLDEN_DIGESTS = {
    "clusters/cluster-joints-clip": (
        "ca53c614837a736214c2cce2ff13b239"
        "1fdb376e6ffbfbbbeba11d158fe18134"
    ),
    "clusters/cluster-joints-none": (
        "54ab820f5516ef3513e05ac9ffaf2f23"
        "d14dd8fc6845e5ccca4fbcf68e3a1870"
    ),
    "clusters/marginals-clip": (
        "c2656f9635b4044cdd2715b89fcd3d8a"
        "6ab96573c84a497a4cf5d962c01527ae"
    ),
    "clusters/marginals-none": (
        "a55943643f27067e5489ca6f19e4df16"
        "3bd47923888dc22a58ea58c608fe9e31"
    ),
    "clusters/pair-table": (
        "da9d3bbd74bd6965dd51a5c2dc226315"
        "26d6dd618079019befdf94996470f73a"
    ),
    "clusters/randomize": (
        "46d5e0430992530afea9e1692f16551c"
        "7bf4dc99379cadf9f8899ff4a7e4b5c6"
    ),
    "clusters/randomize-chunked": (
        "0a4616aa59f46509d2911c44d85519d7"
        "836e90c3c8989b80fcf278c251cc0521"
    ),
    "independent-dense/marginals-clip": (
        "2e5e0c7b0475585fd336142d0b1c7f23"
        "4c3e0b23e0f577a308d2cce1ceb45ee3"
    ),
    "independent-dense/marginals-none": (
        "d52aaaeec99605a707b83a276386523c"
        "fe1834e83dc614b18bae4ef9a4161490"
    ),
    "independent-dense/pair-table": (
        "74797abf521fde6c0a842fea84888abf"
        "6fec04c2a07b0fcc6cabc0f9626902a3"
    ),
    "independent-dense/randomize": (
        "81ae55ab6f79391f85940179b83c9ced"
        "963313cd0e304e79cc0e58812bf1693d"
    ),
    "independent-dense/randomize-chunked": (
        "fa128701faae14b393ab7b4d7c69fa9d"
        "e4d4e61bfd2c7e4430c683da307b5458"
    ),
    "independent/marginals-clip": (
        "3be150e6907530f59744afee5f335449"
        "34c8aa8bbebbad0e7dbf730a06bf78a7"
    ),
    "independent/marginals-none": (
        "7c0e3e79989e41997061e2d65652f2ed"
        "c3148f5fad5c0ac38a5fce9489715b88"
    ),
    "independent/pair-table": (
        "2128f097eea3eb7ef634d07c2cc93262"
        "d44b486635dfc7067ad7f3e22ddab1bf"
    ),
    "independent/randomize": (
        "988a00591dc1a6f7ad552f1ac4c1751f"
        "5d48e879d0c1d024ba1ade6019f907c0"
    ),
    "independent/randomize-chunked": (
        "d3a1f7d90aab1057a6f9f3f409223315"
        "378aa3e65b8037780af757e94db4b5c9"
    ),
    "joint-sub/joint-clip": (
        "4f13a483cc2fd43b9286a74bcb25af8d"
        "4dfc7a8d0e0bef9221f2f4efc62574e9"
    ),
    "joint-sub/joint-none": (
        "4f13a483cc2fd43b9286a74bcb25af8d"
        "4dfc7a8d0e0bef9221f2f4efc62574e9"
    ),
    "joint-sub/marginals-clip": (
        "a72fcfbdacaf7639ddb71b4abecead72"
        "df102b3f702eb434a0af11841443d395"
    ),
    "joint-sub/marginals-none": (
        "a72fcfbdacaf7639ddb71b4abecead72"
        "df102b3f702eb434a0af11841443d395"
    ),
    "joint-sub/pair-table": (
        "b205ede1f05b731ca0634e6afc4c1554"
        "bf423e467bc748d3a70d9f1b43890a60"
    ),
    "joint-sub/randomize": (
        "ca1c827932ff1f5b2a7300fe116e41a7"
        "9d1a69380562bc294bf4faa37b49c880"
    ),
    "joint-sub/randomize-chunked": (
        "9637432e0c4355493c3ffcef493f93f8"
        "83188a43444463aa3777765e7f38beca"
    ),
    "joint/joint-clip": (
        "d954c1727a5ceff5153bd7e53f35b0db"
        "1b3ff01867a0f84e711bc954c0d7f237"
    ),
    "joint/joint-none": (
        "f5c3242ce126ab2e50e092e286b06aa9"
        "6b4a944f767b5d4159f4939a29497ba4"
    ),
    "joint/marginals-clip": (
        "ebfb17333e2fc7c0ec091b332b728fd8"
        "14f2e2d8f0e258535de606fe752370df"
    ),
    "joint/marginals-none": (
        "e051c708c99041b9a07a1b6dd7cf2806"
        "8e5fe456b50ff0ec8b10a0e11da99470"
    ),
    "joint/pair-table": (
        "b36d6135491edbc65ede53fd58ee1882"
        "aa082150ad2278d71a1a0dd54cab09ae"
    ),
    "joint/randomize": (
        "d2f577a5bf3a786dc5a83795c3bb188a"
        "175f5f8b990e50129eb558e1b2e0c22d"
    ),
    "joint/randomize-chunked": (
        "239629462be1009532a4e842ac25c47d"
        "ef126a13755902b3388ece8237982e16"
    ),
}

GOLDEN_SET_FREQUENCIES = {
    "clusters": 0.14974555555555552,
    "independent": 0.13674292695473247,
    "independent-dense": 0.35005350829089965,
    "joint": 0.1272727272727273,
    "joint-sub": 0.38055555555555554,
}


@pytest.fixture(scope="module")
def digests():
    return observed_digests()


@pytest.mark.parametrize("key", sorted(GOLDEN_DIGESTS))
def test_digest_is_pinned(digests, key):
    assert digests[key] == GOLDEN_DIGESTS[key]


def test_every_output_is_pinned(digests):
    assert sorted(digests) == sorted(GOLDEN_DIGESTS)


@pytest.mark.parametrize("key", sorted(GOLDEN_SET_FREQUENCIES))
def test_set_frequency_is_pinned(key):
    observed = observed_set_frequencies()[key]
    assert observed == pytest.approx(GOLDEN_SET_FREQUENCIES[key], rel=1e-12)


@pytest.mark.parametrize("chunk_size", [None, CHUNK_SIZE])
def test_sub_domain_joint_leaves_uncovered_columns(chunk_size):
    schema = _schema()
    data = _dataset(schema)
    joint = _protocols(schema)["joint-sub"]
    released = joint.randomize(data, rng=SEED, chunk_size=chunk_size)
    for name in ("level", "size"):
        np.testing.assert_array_equal(released.column(name), data.column(name))
    assert not np.array_equal(released.column("color"), data.column("color"))
