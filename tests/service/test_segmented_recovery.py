"""Crash-point property tests for the segmented journal.

Kill the collector at every ordering point inside segment rotation and
compaction (via the :func:`repro.service.journal._crash_point` fault
hook), recover, finish the stream, and assert the final estimates are
byte-identical to an uninterrupted run. Also covers the layout
contract: a pre-segmentation single-file state directory opens and
recovers unchanged, with no migration step.
"""

import pytest

from repro.exceptions import ServiceError
from repro.service import journal
from repro.service.codec import ReportCodec
from repro.service.journal import (
    CHECKPOINT_JSON,
    CHECKPOINT_NPZ,
    LOG_NAME,
    MANIFEST_SUFFIX,
    FrameWriter,
    IngestionLog,
)
from repro.service.pipeline import CollectorService
from repro.protocols.independent import RRIndependent

#: Tiny rotation threshold so a ~200-record stream rotates many times.
SEGMENT_BYTES = 256

ROTATION_POINTS = (
    "rotate:before-seal",
    "rotate:sealed",
    "rotate:manifest-written",
    "rotate:active-created",
)
RETIRE_POINTS = (
    "retire:before-manifest",
    "retire:manifest-written",
    "retire:unlinked-one",
)


class SimulatedCrash(Exception):
    """Raised by the fault hook; the test then abandons the service."""


@pytest.fixture
def protocol(small_schema):
    return RRIndependent(small_schema, p=0.7)


@pytest.fixture
def released(protocol, small_dataset):
    return protocol.randomize(small_dataset, rng=11)


@pytest.fixture
def frames(protocol, released):
    codec = ReportCodec(protocol.schema)
    return [
        codec.encode(released.codes[start : start + 5])
        for start in range(0, released.n_records, 5)
    ]


@pytest.fixture
def reference(protocol, frames, tmp_path):
    """Estimates of one uninterrupted run over the whole stream."""
    with CollectorService.for_protocol(
        protocol, tmp_path / "reference", segment_bytes=SEGMENT_BYTES
    ) as service:
        service.ingest(frames)
        return service.estimate_marginals()


def crash_at(monkeypatch, label, *, occurrence=1):
    """Arm the fault hook to raise at the n-th hit of ``label``."""
    seen = {"count": 0}

    def hook(point):
        if point == label:
            seen["count"] += 1
            if seen["count"] == occurrence:
                raise SimulatedCrash(label)

    monkeypatch.setattr(journal, "_crash_point", hook)
    return seen


def disarm(monkeypatch):
    monkeypatch.setattr(journal, "_crash_point", lambda label: None)


def assert_recovers_byte_identical(
    protocol, frames, reference, state, monkeypatch
):
    """Reopen ``state``, resume the stream by log count, compare bytes."""
    disarm(monkeypatch)
    with CollectorService.for_protocol(
        protocol, state, segment_bytes=SEGMENT_BYTES
    ) as recovered:
        # Resume exactly like the CLI: skip what the log already holds
        # (a durably logged frame whose acknowledgement was interrupted
        # counts as ingested — the WAL is authoritative).
        recovered.ingest(frames[recovered.frames_applied :])
        for name, expected in reference.items():
            assert (
                recovered.estimate_marginal(name).tobytes()
                == expected.tobytes()
            )


class TestCrashMidRotation:
    @pytest.mark.parametrize("point", ROTATION_POINTS)
    def test_recovery_is_byte_identical(
        self, protocol, frames, reference, tmp_path, monkeypatch, point
    ):
        state = tmp_path / f"crash-{point.replace(':', '-')}"
        crash_at(monkeypatch, point)
        service = CollectorService.for_protocol(
            protocol, state, segment_bytes=SEGMENT_BYTES
        )
        with pytest.raises(SimulatedCrash):
            for frame in frames:
                service.ingest_frame(frame)
        del service  # kill -9: no close, no checkpoint
        assert_recovers_byte_identical(
            protocol, frames, reference, state, monkeypatch
        )

    @pytest.mark.parametrize("point", ROTATION_POINTS)
    def test_second_rotation_crash_also_recovers(
        self, protocol, frames, reference, tmp_path, monkeypatch, point
    ):
        """The first rotation creates the manifest, later ones replace
        it — both transitions must be crash-safe."""
        state = tmp_path / "crash-later"
        crash_at(monkeypatch, point, occurrence=2)
        service = CollectorService.for_protocol(
            protocol, state, segment_bytes=SEGMENT_BYTES
        )
        with pytest.raises(SimulatedCrash):
            for frame in frames:
                service.ingest_frame(frame)
        del service
        assert_recovers_byte_identical(
            protocol, frames, reference, state, monkeypatch
        )

    @pytest.mark.parametrize("point", ROTATION_POINTS)
    def test_group_commit_rotation_crash(
        self, protocol, frames, reference, tmp_path, monkeypatch, point
    ):
        state = tmp_path / "crash-batch"
        crash_at(monkeypatch, point)
        service = CollectorService.for_protocol(
            protocol, state, segment_bytes=SEGMENT_BYTES
        )
        with pytest.raises(SimulatedCrash):
            service.ingest_many(frames, commit_records=10)
        del service
        assert_recovers_byte_identical(
            protocol, frames, reference, state, monkeypatch
        )


class TestCrashMidCompaction:
    @pytest.mark.parametrize("point", RETIRE_POINTS)
    def test_recovery_is_byte_identical(
        self, protocol, frames, reference, tmp_path, monkeypatch, point
    ):
        state = tmp_path / f"compact-{point.replace(':', '-')}"
        service = CollectorService.for_protocol(
            protocol, state, segment_bytes=SEGMENT_BYTES
        )
        service.ingest(frames[: len(frames) // 2])
        crash_at(monkeypatch, point)
        with pytest.raises(SimulatedCrash):
            service.compact()  # checkpoint lands, retire is interrupted
        del service
        assert_recovers_byte_identical(
            protocol, frames, reference, state, monkeypatch
        )

    def test_interrupted_retire_leaves_no_orphans_after_reopen(
        self, protocol, frames, tmp_path, monkeypatch
    ):
        state = tmp_path / "orphans"
        service = CollectorService.for_protocol(
            protocol, state, segment_bytes=SEGMENT_BYTES
        )
        service.ingest(frames)
        crash_at(monkeypatch, "retire:manifest-written")
        with pytest.raises(SimulatedCrash):
            service.compact()
        del service
        disarm(monkeypatch)
        with CollectorService.for_protocol(
            protocol, state, segment_bytes=SEGMENT_BYTES
        ) as recovered:
            # every segment file on disk is owned by the manifest
            on_disk = {
                p.name
                for p in state.iterdir()
                if p.name == LOG_NAME
                or (
                    p.name.startswith(LOG_NAME + ".")
                    and p.suffix != ".json"
                    and not p.name.endswith(".tmp")
                )
            }
            owned = {
                LOG_NAME if s.seq == 0 else f"{LOG_NAME}.{s.seq:08d}"
                for s in recovered.log.segments
            }
            assert on_disk == owned


class TestCompactionContract:
    def test_compact_bounds_disk_and_preserves_estimates(
        self, protocol, frames, reference, tmp_path
    ):
        state = tmp_path / "compact"
        with CollectorService.for_protocol(
            protocol, state, segment_bytes=SEGMENT_BYTES
        ) as service:
            service.ingest(frames)
            before = sum(
                p.stat().st_size
                for p in state.iterdir()
                if p.name.startswith(LOG_NAME)
            )
            stats = service.compact()
            assert stats["segments_retired"] > 0
            assert stats["bytes_freed"] > 0
            after = sum(
                p.stat().st_size
                for p in state.iterdir()
                if p.name.startswith(LOG_NAME) and not p.name.endswith(".json")
            )
            assert after < before
        with CollectorService.for_protocol(
            protocol, state, segment_bytes=SEGMENT_BYTES
        ) as recovered:
            for name, expected in reference.items():
                assert (
                    recovered.estimate_marginal(name).tobytes()
                    == expected.tobytes()
                )

    def test_auto_compact_retires_at_every_checkpoint(
        self, protocol, frames, tmp_path
    ):
        state = tmp_path / "auto"
        with CollectorService.for_protocol(
            protocol,
            state,
            segment_bytes=SEGMENT_BYTES,
            checkpoint_every=10,
            auto_compact=True,
        ) as service:
            service.ingest_many(frames, commit_records=1)
            # everything but the tail was retired along the way
            assert service.log.n_segments <= 2
            assert service.log.first_retained_frame > 0

    def test_compact_stats_are_truthful_under_auto_compact(
        self, protocol, frames, tmp_path
    ):
        """compact()'s stats must count the segments its own call
        retired — not 0 because the checkpoint's auto-retire got there
        first."""
        state = tmp_path / "auto-stats"
        with CollectorService.for_protocol(
            protocol,
            state,
            segment_bytes=SEGMENT_BYTES,
            auto_compact=True,
        ) as service:
            service.ingest(frames)
            assert service.log.n_segments > 1  # rotated, not yet retired
            stats = service.compact()
            assert stats["segments_retired"] > 0
            assert stats["bytes_freed"] > 0

    def test_compacted_state_without_checkpoint_is_refused(
        self, protocol, frames, tmp_path
    ):
        """Once the log head is retired, the checkpoint is load-bearing:
        recovery without it must refuse rather than undercount."""
        state = tmp_path / "no-ckpt"
        with CollectorService.for_protocol(
            protocol, state, segment_bytes=SEGMENT_BYTES
        ) as service:
            service.ingest(frames)
            service.compact()
        (state / CHECKPOINT_JSON).unlink()
        (state / CHECKPOINT_NPZ).unlink()
        with pytest.raises(ServiceError, match="compacted away"):
            CollectorService.for_protocol(
                protocol, state, segment_bytes=SEGMENT_BYTES
            )

    def test_corrupt_checkpoint_on_compacted_state_is_refused(
        self, protocol, frames, tmp_path
    ):
        state = tmp_path / "bad-ckpt"
        with CollectorService.for_protocol(
            protocol, state, segment_bytes=SEGMENT_BYTES
        ) as service:
            service.ingest(frames)
            service.compact()
        npz = state / CHECKPOINT_NPZ
        raw = bytearray(npz.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        npz.write_bytes(bytes(raw))
        with pytest.warns(RuntimeWarning, match="unusable checkpoint"):
            with pytest.raises(ServiceError, match="unrecoverable"):
                CollectorService.for_protocol(
                    protocol, state, segment_bytes=SEGMENT_BYTES
                )


class TestPreSegmentLayoutCompatibility:
    def test_single_file_state_dir_opens_and_recovers_unchanged(
        self, protocol, frames, reference, tmp_path
    ):
        """A state directory written before segmentation existed (bare
        ingest.log, no manifest) must open with no migration and keep
        recovering byte-identically."""
        state = tmp_path / "legacy"
        state.mkdir()
        # Write the legacy layout directly: one monolithic frame file.
        with FrameWriter(state / LOG_NAME) as writer:
            for frame in frames[:20]:
                writer.write(frame)
            writer.sync()
        legacy_bytes = (state / LOG_NAME).read_bytes()
        with CollectorService.for_protocol(
            protocol, state, segment_bytes=None
        ) as service:
            assert service.frames_applied == 20
            service.ingest(frames[20:])
        # no manifest, no segment files: the layout never changed
        assert not (state / (LOG_NAME + MANIFEST_SUFFIX)).exists()
        assert [p.name for p in state.iterdir() if LOG_NAME in p.name] == [
            LOG_NAME
        ]
        assert (state / LOG_NAME).read_bytes()[: len(legacy_bytes)] == (
            legacy_bytes
        )
        with CollectorService.for_protocol(protocol, state) as recovered:
            for name, expected in reference.items():
                assert (
                    recovered.estimate_marginal(name).tobytes()
                    == expected.tobytes()
                )

    def test_legacy_dir_reopened_segmented_rotates_in_place(
        self, protocol, frames, reference, tmp_path
    ):
        """Turning segmentation on over an old directory just seals the
        existing file as segment 0 — recovery contract untouched."""
        state = tmp_path / "upgrade"
        with CollectorService.for_protocol(
            protocol, state, segment_bytes=None
        ) as service:
            service.ingest(frames[:20])
        with CollectorService.for_protocol(
            protocol, state, segment_bytes=SEGMENT_BYTES
        ) as upgraded:
            assert upgraded.frames_applied == 20
            upgraded.ingest(frames[20:])
            assert upgraded.log.n_segments > 1
            for name, expected in reference.items():
                assert (
                    upgraded.estimate_marginal(name).tobytes()
                    == expected.tobytes()
                )


class TestVectorizedReplayEquivalence:
    def test_windowed_recovery_matches_per_frame(
        self, protocol, frames, released, tmp_path
    ):
        """Windowed replay is a pure perf change: decoding the log in
        windows of any size and counting with receive_batch gives the
        estimates the service's count_many ingest reached."""
        state = tmp_path / "windows"
        with CollectorService.for_protocol(
            protocol, state, segment_bytes=SEGMENT_BYTES
        ) as service:
            service.ingest(frames)
            reference = service.estimate_marginals()
        codec = ReportCodec(protocol.schema)
        for window_records in (1, 7, 64, 10_000):
            from repro.analysis.streaming import StreamingCollector

            collector = StreamingCollector.for_protocol(protocol)
            with IngestionLog(
                state / LOG_NAME, segment_bytes=SEGMENT_BYTES
            ) as log:
                for window in codec.iter_frame_windows(
                    log.replay(0), window_records=window_records
                ):
                    collector.receive_batch(
                        codec.decode_many(window), validated=True
                    )
            assert collector.n_observed == released.n_records
            for name, expected in reference.items():
                assert (
                    collector.estimate_marginal(name).tobytes()
                    == expected.tobytes()
                )
