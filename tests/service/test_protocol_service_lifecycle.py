"""All three protocols through the collector service, end to end.

The tentpole guarantee of the unified interface: any protocol flows
through codec → write-ahead log → pipeline → query cache from a single
design document, with the same WAL-first durability contract the
RR-Independent service always had — crash anywhere, recover to
byte-identical estimates. RR-Clusters additionally exercises the
cluster-aware query routing (within-cluster pair tables come from the
cluster's joint estimate, cross-cluster ones from §4 independence).
"""

import csv
import json

import numpy as np
import pytest

from repro.clustering.algorithm import Clustering
from repro.protocols import RRClusters, RRIndependent, RRJoint
from repro.service.codec import ReportCodec
from repro.service.pipeline import CollectorService


@pytest.fixture
def clustering(small_schema):
    return Clustering(
        schema=small_schema, clusters=(("flag", "level"), ("color",))
    )


@pytest.fixture(params=["independent", "joint", "clusters"])
def protocol(request, small_schema, clustering):
    if request.param == "independent":
        return RRIndependent(small_schema, p=0.7)
    if request.param == "joint":
        return RRJoint(small_schema, p=0.7)
    return RRClusters(clustering, p=0.7)


@pytest.fixture
def released(protocol, small_dataset):
    return protocol.randomize(small_dataset, rng=13)


@pytest.fixture
def frames(protocol, released):
    codec = ReportCodec(protocol.schema)
    return [
        codec.encode(released.codes[start : start + 25])
        for start in range(0, released.n_records, 25)
    ]


class TestLifecyclePerProtocol:
    def test_ingest_matches_direct_estimation(
        self, protocol, released, frames, tmp_path
    ):
        service = CollectorService.for_protocol(protocol, tmp_path / "state")
        try:
            service.ingest(frames)
            front = service.queries
            for name in protocol.collection.member_names:
                np.testing.assert_array_equal(
                    front.marginal(name),
                    protocol.estimate_marginal(released, name),
                )
            np.testing.assert_array_equal(
                front.pair_table("flag", "level"),
                protocol.estimate_pair_table(released, "flag", "level"),
            )
            np.testing.assert_array_equal(
                front.pair_table("flag", "color"),
                protocol.estimate_pair_table(released, "flag", "color"),
            )
            cells = np.array([[0, 2], [1, 0]])
            assert front.set_frequency(
                ("level", "color"), cells
            ) == pytest.approx(
                protocol.estimate_set_frequency(
                    released, ("level", "color"), cells
                )
            )
        finally:
            service.close()

    def test_crash_recovery_byte_identical(self, protocol, frames, tmp_path):
        state = tmp_path / "crash"
        service = CollectorService.for_protocol(
            protocol, state, checkpoint_every=3
        )
        for frame in frames[:5]:
            service.ingest_frame(frame)
        # Crash: close without a final checkpoint (frames 4-5 live only
        # in the write-ahead log).
        service.close()

        recovered = CollectorService.for_protocol(protocol, state)
        try:
            recovered.ingest(frames[5:])
            recovered_marginals = recovered.estimate_marginals()
        finally:
            recovered.close()

        reference = CollectorService.for_protocol(protocol, tmp_path / "ref")
        try:
            reference.ingest(frames)
            reference_marginals = reference.estimate_marginals()
        finally:
            reference.close()

        assert set(recovered_marginals) == set(reference_marginals)
        for name, estimate in reference_marginals.items():
            np.testing.assert_array_equal(recovered_marginals[name], estimate)

    def test_counts_are_per_release_unit(self, protocol, frames, tmp_path):
        service = CollectorService.for_protocol(protocol, tmp_path / "state")
        try:
            service.ingest(frames)
            service.flush()
            counts = service.collector.snapshot_counts()
            assert set(counts) == set(protocol.collection.cluster_names)
            sizes = dict(
                zip(
                    protocol.collection.cluster_names,
                    service.collection_schema.sizes,
                )
            )
            for name, vector in counts.items():
                assert vector.shape == (sizes[name],)
                assert vector.sum() == service.n_observed
        finally:
            service.close()


class TestClusterQueryRouting:
    def test_within_cluster_pair_is_not_outer_product(
        self, clustering, small_dataset, tmp_path
    ):
        """The routing must actually use the joint: for a dependent
        pair inside a cluster, the joint-based table differs from the
        independence outer product."""
        protocol = RRClusters(clustering, p=0.9)
        released = protocol.randomize(small_dataset, rng=21)
        codec = ReportCodec(protocol.schema)
        service = CollectorService.for_protocol(protocol, tmp_path / "state")
        try:
            service.ingest([codec.encode(released.codes)])
            front = service.queries
            table = front.pair_table("flag", "level")
            outer = np.outer(
                front.marginal("flag"), front.marginal("level")
            )
            assert not np.allclose(table, outer)
            np.testing.assert_array_equal(
                table, protocol.estimate_pair_table(released, "flag", "level")
            )
        finally:
            service.close()

    def test_cache_hits_on_repeat_cluster_queries(
        self, clustering, small_dataset, tmp_path
    ):
        protocol = RRClusters(clustering, p=0.7)
        released = protocol.randomize(small_dataset, rng=22)
        codec = ReportCodec(protocol.schema)
        service = CollectorService.for_protocol(protocol, tmp_path / "state")
        try:
            service.ingest([codec.encode(released.codes)])
            front = service.queries
            front.pair_table("flag", "level")
            misses = front.stats["misses"]
            front.pair_table("flag", "level")
            front.marginal("flag")  # derives from the same cached joint
            assert front.stats["misses"] == misses + 1  # only the marginal
            assert front.stats["hits"] >= 1
        finally:
            service.close()

    def test_queryable_names_are_wire_attributes(self, clustering, tmp_path):
        protocol = RRClusters(clustering, p=0.7)
        service = CollectorService.for_protocol(protocol, tmp_path / "state")
        try:
            front = service.queries
            assert front.names == ("flag", "level", "color")
            assert service.schema.names == ("flag", "level", "color")
            assert service.collection_schema.names == ("flag+level", "color")
        finally:
            service.close()


def _write_survey(path, n=600):
    rng = np.random.default_rng(5)
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["smokes", "alcohol", "stress"])
        smokes = rng.integers(0, 2, n)
        alcohol = np.where(
            rng.random(n) < 0.6, smokes, rng.integers(0, 3, n)
        )
        stress = rng.integers(0, 4, n)
        labels = (
            ("no", "yes"),
            ("never", "rarely", "often"),
            ("low", "mid", "high", "extreme"),
        )
        for row in zip(smokes, alcohol, stress):
            writer.writerow(
                [labels[j][int(v)] for j, v in enumerate(row)]
            )


@pytest.mark.parametrize(
    "extra_args",
    [
        pytest.param([], id="independent"),
        pytest.param(["--protocol", "joint"], id="joint"),
        pytest.param(
            ["--protocol", "clusters", "--clusters", "smokes+alcohol,stress"],
            id="clusters",
        ),
    ],
)
class TestCliCrashResumeAllProtocols:
    def test_encode_crash_resume_query_byte_identical(
        self, tmp_path, capsys, extra_args
    ):
        from repro.cli import main

        survey = tmp_path / "survey.csv"
        _write_survey(survey)
        reports = tmp_path / "reports.rrw"
        design = tmp_path / "design.json"
        assert main(
            [
                "encode", str(survey), "-o", str(reports),
                "--design", str(design), "--p", "0.7", "--seed", "3",
                "--frame-records", "50", *extra_args,
            ]
        ) == 0

        # Crashed run: stop mid-stream without a final checkpoint.
        state = tmp_path / "state"
        assert main(
            [
                "ingest", str(reports), "-s", str(state),
                "--design", str(design), "--checkpoint-every", "4",
                "--stop-after", "7",
            ]
        ) == 0
        # Resume and finish.
        assert main(
            [
                "ingest", str(reports), "-s", str(state),
                "--design", str(design), "--resume",
            ]
        ) == 0
        answer = tmp_path / "crashed.json"
        assert main(
            [
                "query", "-s", str(state), "--design", str(design),
                "--pair", "smokes", "alcohol",
                "--pair", "smokes", "stress",
                "-o", str(answer),
            ]
        ) == 0

        # Uninterrupted reference run over the same reports.
        reference_state = tmp_path / "reference"
        assert main(
            [
                "ingest", str(reports), "-s", str(reference_state),
                "--design", str(design),
            ]
        ) == 0
        reference_answer = tmp_path / "reference.json"
        assert main(
            [
                "query", "-s", str(reference_state), "--design", str(design),
                "--pair", "smokes", "alcohol",
                "--pair", "smokes", "stress",
                "-o", str(reference_answer),
            ]
        ) == 0

        crashed = json.loads(answer.read_text())
        reference = json.loads(reference_answer.read_text())
        crashed.pop("cache")
        reference.pop("cache")
        assert crashed == reference  # byte-identical estimates
        assert crashed["n_observed"] == 600
