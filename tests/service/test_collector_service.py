"""Tests for the ingestion pipeline and the checkpointed service.

Includes the crash-recovery acceptance test: kill the collector after a
checkpoint plus a partial log, recover, and verify the final estimates
are byte-identical to an uninterrupted run over the same reports.
"""

import numpy as np
import pytest

from repro.analysis.streaming import StreamingCollector
from repro.exceptions import ServiceError
from repro.protocols.independent import RRIndependent
from repro.service.codec import ReportCodec
from repro.service.journal import CHECKPOINT_JSON, LOG_NAME
from repro.service.pipeline import CollectorService, IngestionPipeline


@pytest.fixture
def protocol(small_schema):
    return RRIndependent(small_schema, p=0.7)


@pytest.fixture
def released(protocol, small_dataset):
    return protocol.randomize(small_dataset, rng=33)


@pytest.fixture
def frames(protocol, released):
    codec = ReportCodec(protocol.schema)
    return [
        codec.encode(released.codes[start : start + 10])
        for start in range(0, released.n_records, 10)
    ]


class TestIngestionPipeline:
    def test_batched_absorption_matches_direct(self, protocol, released):
        collector = StreamingCollector.for_protocol(protocol)
        pipeline = IngestionPipeline(collector, batch_size=64)
        for start in range(0, released.n_records, 7):
            pipeline.submit(released.codes[start : start + 7])
        pipeline.flush()
        assert pipeline.pending == 0
        assert collector.n_observed == released.n_records
        for name in protocol.schema.names:
            np.testing.assert_allclose(
                collector.estimate_marginal(name),
                protocol.estimate_marginal(released, name),
                atol=1e-12,
            )

    def test_backpressure_signal(self, protocol, released):
        pipeline = IngestionPipeline(
            StreamingCollector.for_protocol(protocol), batch_size=50
        )
        assert pipeline.submit(released.codes[:30]) == 30
        # crossing the threshold triggers an absorption pass
        assert pipeline.submit(released.codes[30:60]) == 0
        assert pipeline.collector.n_observed == 60

    def test_empty_submit_is_noop(self, protocol, small_schema):
        pipeline = IngestionPipeline(StreamingCollector.for_protocol(protocol))
        assert pipeline.submit(
            np.empty((0, small_schema.width), dtype=np.int64)
        ) == 0

    def test_bad_shape_rejected(self, protocol):
        pipeline = IngestionPipeline(StreamingCollector.for_protocol(protocol))
        with pytest.raises(ServiceError, match="shape"):
            pipeline.submit(np.zeros((3, 9), dtype=np.int64))

    def test_bad_batch_size_rejected(self, protocol):
        with pytest.raises(ServiceError, match="batch_size"):
            IngestionPipeline(
                StreamingCollector.for_protocol(protocol), batch_size=0
            )


class TestCollectorService:
    def test_ingest_matches_batch_estimation(
        self, protocol, released, frames, tmp_path
    ):
        with CollectorService.for_protocol(protocol, tmp_path / "s") as svc:
            assert svc.ingest(frames) == len(frames)
            assert svc.n_observed == released.n_records
            for name in protocol.schema.names:
                np.testing.assert_allclose(
                    svc.estimate_marginal(name),
                    protocol.estimate_marginal(released, name),
                    atol=1e-12,
                )

    def test_crash_recovery_byte_identical(
        self, protocol, frames, tmp_path
    ):
        """Acceptance criterion: checkpoint + partial log + crash, then
        recovery and the remaining stream, equals one uninterrupted run
        byte for byte."""
        # Uninterrupted reference run.
        with CollectorService.for_protocol(protocol, tmp_path / "ref") as ref:
            ref.ingest(frames)
            reference = {
                name: ref.estimate_marginal(name)
                for name in protocol.schema.names
            }

        # Crashed run: checkpoint fires at frame 5 and 10; three more
        # frames land only in the log; then the process dies (no close,
        # no final checkpoint).
        crashed = CollectorService.for_protocol(
            protocol, tmp_path / "crash", checkpoint_every=5
        )
        for frame in frames[:13]:
            crashed.ingest_frame(frame)
        del crashed  # simulated kill -9: nothing else runs

        recovered = CollectorService.for_protocol(
            protocol, tmp_path / "crash", checkpoint_every=5
        )
        assert recovered.frames_applied == 13  # checkpoint + log tail
        recovered.ingest(frames[13:])
        for name in protocol.schema.names:
            assert (
                recovered.estimate_marginal(name).tobytes()
                == reference[name].tobytes()
            )
        recovered.close()

    def test_recovery_from_torn_log_tail(self, protocol, frames, tmp_path):
        state = tmp_path / "torn"
        service = CollectorService.for_protocol(protocol, state)
        for frame in frames[:6]:
            service.ingest_frame(frame)
        service.close()
        log = state / LOG_NAME
        log.write_bytes(log.read_bytes()[:-4])  # crash mid-append
        recovered = CollectorService.for_protocol(protocol, state)
        assert recovered.frames_applied == 5
        recovered.ingest(frames[5:])
        assert recovered.frames_applied == len(frames)
        recovered.close()

    def test_checkpoint_every_writes_periodically(
        self, protocol, frames, tmp_path
    ):
        state = tmp_path / "periodic"
        with CollectorService.for_protocol(
            protocol, state, checkpoint_every=4
        ) as svc:
            for frame in frames[:4]:
                svc.ingest_frame(frame)
            assert (state / CHECKPOINT_JSON).exists()

    def test_foreign_frame_rejected_before_logging(
        self, protocol, frames, tmp_path
    ):
        from repro.data.schema import Attribute, Schema
        from repro.exceptions import CodecError

        other = Schema([Attribute("other", ("a", "b"))])
        foreign = ReportCodec(other).encode(np.array([[1]]))
        with CollectorService.for_protocol(protocol, tmp_path / "f") as svc:
            with pytest.raises(CodecError, match="fingerprint"):
                svc.ingest_frame(foreign)
            # the poisonous frame never reached the log
            assert svc.frames_applied == 0
            svc.ingest(frames[:2])
            assert svc.frames_applied == 2

    def test_checkpoint_from_different_design_rejected(
        self, protocol, frames, small_schema, tmp_path
    ):
        state = tmp_path / "mismatch"
        with CollectorService.for_protocol(protocol, state) as svc:
            svc.ingest(frames[:3])
            svc.checkpoint()
        other = RRIndependent(small_schema, p=0.4)
        with pytest.raises(ServiceError, match="matrix fingerprints"):
            CollectorService.for_protocol(other, state)

    def test_log_only_state_rejects_different_design(
        self, protocol, frames, small_schema, tmp_path
    ):
        """Crash before the first checkpoint must still pin the design:
        wire frames alone only pin the schema, not the matrices."""
        state = tmp_path / "log-only"
        crashed = CollectorService.for_protocol(protocol, state)
        crashed.ingest(frames[:2])  # no checkpoint ever written
        del crashed
        other = RRIndependent(small_schema, p=0.4)  # same schema, new p
        with pytest.raises(ServiceError, match="matrix fingerprints"):
            CollectorService.for_protocol(other, state)
        # the matching design still recovers normally
        recovered = CollectorService.for_protocol(protocol, state)
        assert recovered.frames_applied == 2
        recovered.close()

    def test_corrupt_checkpoint_falls_back_to_full_replay(
        self, protocol, frames, tmp_path
    ):
        """A torn checkpoint pair must not brick the service: the log
        is a superset, so full replay reconstructs identical state."""
        from repro.service.journal import CHECKPOINT_NPZ

        state = tmp_path / "corrupt-ckpt"
        with CollectorService.for_protocol(protocol, state) as svc:
            svc.ingest(frames)
            svc.checkpoint()
            reference = {
                name: svc.estimate_marginal(name)
                for name in protocol.schema.names
            }
        npz = state / CHECKPOINT_NPZ
        raw = bytearray(npz.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        npz.write_bytes(bytes(raw))
        with pytest.warns(RuntimeWarning, match="full log replay"):
            recovered = CollectorService.for_protocol(protocol, state)
        assert recovered.frames_applied == len(frames)
        for name in protocol.schema.names:
            assert (
                recovered.estimate_marginal(name).tobytes()
                == reference[name].tobytes()
            )
        recovered.close()

    def test_checkpoint_ahead_of_log_rejected(
        self, protocol, frames, tmp_path
    ):
        state = tmp_path / "ahead"
        with CollectorService.for_protocol(protocol, state) as svc:
            svc.ingest(frames[:5])
            svc.checkpoint()
        log = state / LOG_NAME
        log.write_bytes(b"")  # lose the log but keep the checkpoint
        with pytest.raises(ServiceError, match="inconsistent"):
            CollectorService.for_protocol(protocol, state)

    def test_concurrent_writer_refused(self, protocol, frames, tmp_path):
        """Two live services on one state dir would interleave log
        appends and double-count — the second opener must be refused."""
        state = tmp_path / "locked"
        first = CollectorService.for_protocol(protocol, state)
        first.ingest(frames[:2])
        with pytest.raises(ServiceError, match="locked"):
            CollectorService.for_protocol(protocol, state)
        first.close()  # releasing the lock lets the next writer in
        second = CollectorService.for_protocol(protocol, state)
        assert second.frames_applied == 2
        second.close()

    def test_bad_checkpoint_every_rejected(self, protocol, tmp_path):
        with pytest.raises(ServiceError, match="checkpoint_every"):
            CollectorService.for_protocol(
                protocol, tmp_path / "x", checkpoint_every=0
            )

    def test_queries_property_flushes(self, protocol, frames, tmp_path):
        with CollectorService.for_protocol(
            protocol, tmp_path / "q", batch_size=10_000
        ) as svc:
            svc.ingest(frames)
            front = svc.queries
            marginal = front.marginal(protocol.schema.names[0])
            assert marginal.shape[0] == protocol.schema.attribute(0).size
            assert svc.n_observed > 0


class TestGroupCommitIngestion:
    """The bulk ingest_many path: same state, fewer fsyncs."""

    def test_matches_per_frame_ingest(self, protocol, frames, tmp_path):
        with CollectorService.for_protocol(
            protocol, tmp_path / "frame"
        ) as per_frame:
            per_frame.ingest_many(frames, commit_records=1)
            frame_estimates = per_frame.estimate_marginals()
        with CollectorService.for_protocol(
            protocol, tmp_path / "batch"
        ) as batched:
            batched.ingest_many(frames)
            batch_estimates = batched.estimate_marginals()
            assert batched.frames_applied == len(frames)
        # identical counts => byte-identical estimates
        for name in protocol.schema.names:
            np.testing.assert_array_equal(
                frame_estimates[name], batch_estimates[name]
            )
        # and a byte-identical write-ahead log
        assert (tmp_path / "frame" / LOG_NAME).read_bytes() == (
            tmp_path / "batch" / LOG_NAME
        ).read_bytes()

    def test_small_commit_windows(self, protocol, frames, released, tmp_path):
        """Windows smaller than a frame still commit every frame."""
        with CollectorService.for_protocol(protocol, tmp_path / "s") as svc:
            ingested = svc.ingest_many(frames, commit_records=5)
            assert ingested == len(frames)
            assert svc.frames_applied == len(frames)
            assert svc.n_observed == released.n_records

    def test_limit_stops_exactly_and_commits_partial_window(
        self, protocol, frames, tmp_path
    ):
        with CollectorService.for_protocol(protocol, tmp_path / "l") as svc:
            stream = iter(frames)
            assert svc.ingest_many(stream, limit=3) == 3
            # the limited run is durable and the iterator undisturbed
            assert svc.frames_applied == 3
            assert next(stream) == frames[3]

    def test_crash_recovery_after_group_commit(
        self, protocol, frames, released, tmp_path
    ):
        """Kill the service right after ingest_many (no checkpoint):
        recovery must replay to byte-identical estimates."""
        state = tmp_path / "crash"
        svc = CollectorService.for_protocol(protocol, state)
        svc.ingest_many(frames, commit_records=64)
        reference = svc.estimate_marginals()
        svc.close()  # close() never checkpoints — simulated crash

        with CollectorService.for_protocol(protocol, state) as recovered:
            assert recovered.frames_applied == len(frames)
            assert recovered.n_observed == released.n_records
            for name, expected in reference.items():
                np.testing.assert_array_equal(
                    recovered.estimate_marginal(name), expected
                )

    def test_corrupt_frame_discards_only_its_window(
        self, protocol, frames, tmp_path
    ):
        corrupt = bytearray(frames[2])
        corrupt[-1] ^= 0xFF
        stream = [frames[0], frames[1], bytes(corrupt), frames[3]]
        with CollectorService.for_protocol(protocol, tmp_path / "c") as svc:
            from repro.exceptions import CodecError

            with pytest.raises(CodecError, match="CRC"):
                # window = whole stream: validation precedes logging
                svc.ingest_many(stream)
            assert svc.frames_applied == 0
            # earlier *committed* windows survive a later bad window
            with pytest.raises(CodecError, match="CRC"):
                svc.ingest_many(stream, commit_records=1)
            assert svc.frames_applied == 2

    def test_bad_commit_records_rejected(self, protocol, frames, tmp_path):
        with CollectorService.for_protocol(protocol, tmp_path / "y") as svc:
            with pytest.raises(ServiceError, match="commit_records"):
                svc.ingest_many(frames, commit_records=0)
            with pytest.raises(ServiceError, match="limit"):
                svc.ingest_many(frames, limit=-1)

    def test_checkpoint_every_at_window_boundaries(
        self, protocol, frames, tmp_path
    ):
        state = tmp_path / "ckpt"
        with CollectorService.for_protocol(
            protocol, state, checkpoint_every=2
        ) as svc:
            svc.ingest_many(frames[:4], commit_records=1)
            assert (state / CHECKPOINT_JSON).exists()

    def test_forged_zero_count_headers_still_commit_windows(
        self, protocol, frames, tmp_path
    ):
        """A header claiming k=0 must still advance the commit window
        (bounded buffering) and be rejected before anything is logged."""
        import struct

        forged = bytearray(frames[0])
        struct.pack_into("<I", forged, 14, 0)  # count field of the header
        with CollectorService.for_protocol(protocol, tmp_path / "z") as svc:
            from repro.exceptions import CodecError

            with pytest.raises(CodecError):
                # window of 1: the forged frame's window commits (and
                # fails validation) immediately, not at end-of-stream
                svc.ingest_many(
                    [frames[0], bytes(forged), frames[1]], commit_records=1
                )
            assert svc.frames_applied == 1
