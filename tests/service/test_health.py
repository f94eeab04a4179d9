"""Tests for health snapshots: live, offline, and across recovery.

``CollectorService.health()`` is the live surface; ``storage_health``
inspects a state directory from disk alone. Both speak the checked-in
schema, and the sections named by ``DETERMINISTIC_SECTIONS`` must be
byte-stable across a crash and recovery — that is this PR's acceptance
criterion, pinned here via ``json.dumps(..., sort_keys=True)``.
"""

import json

import pytest

from repro.exceptions import ServiceError
from repro.obs.health import deterministic_view, validate_health
from repro.obs.registry import MetricsRegistry
from repro.obs.tracing import span_metric_name
from repro.protocols.independent import RRIndependent
from repro.service.codec import ReportCodec
from repro.service.health import storage_health
from repro.service.pipeline import CollectorService


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


class TestLiveHealth:
    def test_validates_against_schema(self, protocol, frames, tmp_path):
        with CollectorService.for_protocol(protocol, tmp_path / "s") as svc:
            for frame in frames[:5]:
                svc.ingest_frame(frame)
            health = validate_health(svc.health())
        assert health["version"] == 1
        assert health["state_dir"] == str(tmp_path / "s")

    def test_journal_and_counts_reflect_ingest(
        self, protocol, frames, tmp_path
    ):
        with CollectorService.for_protocol(protocol, tmp_path / "s") as svc:
            for frame in frames:
                svc.ingest_frame(frame)
            health = svc.health()
        assert health["journal"]["n_frames"] == len(frames)
        assert health["counts"]["frames_applied"] == len(frames)
        assert health["counts"]["n_observed"] == len(frames) * 10
        assert sum(
            s["frames"] for s in health["journal"]["segments"]
        ) == len(frames)

    def test_checkpoint_section_flips_after_checkpoint(
        self, protocol, frames, tmp_path
    ):
        with CollectorService.for_protocol(protocol, tmp_path / "s") as svc:
            svc.ingest_frame(frames[0])
            assert svc.health()["checkpoint"] == {
                "present": False,
                "frames_applied": None,
            }
            svc.checkpoint()
            assert svc.health()["checkpoint"] == {
                "present": True,
                "frames_applied": 1,
            }

    def test_health_flushes_pending_records(self, protocol, frames, tmp_path):
        svc = CollectorService.for_protocol(
            protocol, tmp_path / "s", batch_size=10_000
        )
        try:
            svc.ingest_frame(frames[0])
            health = svc.health()
            assert health["runtime"]["pending_records"] == 0
            assert health["counts"]["n_observed"] == 10
        finally:
            svc.close()

    def test_runtime_reports_metrics_disabled_by_default(
        self, protocol, tmp_path
    ):
        with CollectorService.for_protocol(protocol, tmp_path / "s") as svc:
            health = svc.health()
        assert health["runtime"]["metrics_enabled"] is False
        assert health["metrics"]["counters"] == {}

    def test_metrics_section_covers_the_stack(
        self, protocol, frames, tmp_path
    ):
        registry = MetricsRegistry()
        with CollectorService.for_protocol(
            protocol, tmp_path / "s", metrics=registry
        ) as svc:
            for frame in frames[:4]:
                svc.ingest_frame(frame)
            svc.checkpoint()
            svc.estimate_marginal(protocol.schema.names[0])
            health = validate_health(svc.health())
        counters = health["metrics"]["counters"]
        assert counters["service.ingest.frames"] == 4
        assert counters["service.ingest.records"] == 40
        assert counters["codec.decode.frames"] >= 4
        assert counters["journal.append.frames"] == 4
        assert counters["service.checkpoints"] == 1
        assert counters["service.recoveries"] == 1
        # the query front-end folds in as a child registry
        assert counters["query.cache.misses"] >= 1
        histograms = health["metrics"]["histograms"]
        assert histograms[span_metric_name("service.commit_window")]["count"] == 4
        assert histograms[span_metric_name("service.checkpoint")]["count"] == 1


class TestCrashRecoveryStability:
    def test_deterministic_sections_byte_stable(
        self, protocol, frames, tmp_path
    ):
        state = tmp_path / "s"
        svc = CollectorService.for_protocol(protocol, state)
        for frame in frames[:12]:
            svc.ingest_frame(frame)
        svc.checkpoint()
        for frame in frames[12:]:
            svc.ingest_frame(frame)
        before = svc.health()
        del svc  # simulated kill -9: no close, no final checkpoint

        recovered = CollectorService.for_protocol(protocol, state)
        try:
            after = recovered.health()
        finally:
            recovered.close()
        assert json.dumps(
            deterministic_view(before), sort_keys=True
        ) == json.dumps(deterministic_view(after), sort_keys=True)

    def test_nondeterministic_sections_not_pinned(
        self, protocol, frames, tmp_path
    ):
        # sanity check on the split: runtime/metrics may differ across
        # recovery and must therefore stay out of the deterministic view
        view = deterministic_view(
            {"journal": {}, "runtime": {"uptime_seconds": 1.0}}
        )
        assert "runtime" not in view


class TestStorageHealth:
    def test_matches_live_document_after_clean_close(
        self, protocol, frames, tmp_path
    ):
        state = tmp_path / "s"
        svc = CollectorService.for_protocol(
            protocol, state, segment_bytes=2048
        )
        for frame in frames:
            svc.ingest_frame(frame)
        svc.checkpoint()
        live = svc.health()
        svc.close()

        offline = validate_health(storage_health(state))
        for section in ("journal", "checkpoint", "design"):
            assert offline[section] == live[section], section
        assert "runtime" not in offline
        assert "metrics" not in offline

    def test_safe_on_crashed_state(self, protocol, frames, tmp_path):
        state = tmp_path / "s"
        svc = CollectorService.for_protocol(protocol, state)
        for frame in frames[:3]:
            svc.ingest_frame(frame)
        del svc  # crash: no checkpoint, lock handle dropped

        offline = storage_health(state)
        assert offline["journal"]["n_frames"] == 3
        assert offline["checkpoint"]["present"] is False

    def test_torn_tail_counted_out_but_not_truncated(
        self, protocol, frames, tmp_path
    ):
        from repro.service.journal import LOG_NAME

        state = tmp_path / "s"
        svc = CollectorService.for_protocol(protocol, state)
        for frame in frames[:3]:
            svc.ingest_frame(frame)
        svc.close()
        log = state / LOG_NAME
        torn = log.read_bytes()[:-4]
        log.write_bytes(torn)  # crash mid-append

        offline = storage_health(state)
        assert offline["journal"]["n_frames"] == 2
        # inspection is read-only: the torn bytes are still on disk
        assert log.read_bytes() == torn

    def test_missing_directory_rejected(self, tmp_path):
        with pytest.raises(ServiceError, match="not a state directory"):
            storage_health(tmp_path / "nope")

    def test_reads_while_collector_runs(self, protocol, frames, tmp_path):
        state = tmp_path / "s"
        with CollectorService.for_protocol(protocol, state) as svc:
            for frame in frames[:5]:
                svc.ingest_frame(frame)
            svc.checkpoint()
            # the service holds the exclusive lock; inspection must not
            # need it
            offline = storage_health(state)
        assert offline["checkpoint"]["present"] is True
