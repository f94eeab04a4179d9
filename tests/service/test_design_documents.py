"""Versioned design documents: round trips, fingerprints, rejection.

The design document is the only artifact that travels from the party
side to the collector side, so these tests pin its contract hard:
byte-stable canonical JSON, exact protocol reconstruction for all
three protocols, fingerprint pinning against tampering, version gating,
and — per the durability threat model — the guarantee that no party
seed ever enters a document.
"""

import json

import numpy as np
import pytest

from repro.clustering.algorithm import Clustering
from repro.design import (
    DESIGN_VERSION,
    DesignDocument,
    load_design,
    write_design,
)
from repro.exceptions import ServiceError
from repro.protocols import Protocol, RRClusters, RRIndependent, RRJoint
from repro.service.journal import SERVICE_META
from repro.service.net import TenantManager
from repro.service.net.storage import TENANT_META
from repro.service.pipeline import CollectorService


@pytest.fixture
def clustering(small_schema):
    return Clustering(
        schema=small_schema, clusters=(("flag", "level"), ("color",))
    )


@pytest.fixture(params=["independent", "joint", "joint-eps", "clusters"])
def protocol(request, small_schema, clustering):
    if request.param == "independent":
        return RRIndependent(small_schema, p=0.7)
    if request.param == "joint":
        return RRJoint(small_schema, names=("flag", "level"), p=0.6)
    if request.param == "joint-eps":
        return RRJoint.calibrated_to_independent(
            small_schema, ("flag", "color"), 0.8
        )
    return RRClusters(clustering, p=0.7)


class TestRoundTrip:
    def test_to_design_from_design_rebuilds(self, protocol):
        document = protocol.to_design()
        rebuilt = Protocol.from_design(document)
        assert type(rebuilt) is type(protocol)
        assert rebuilt.schema == protocol.schema
        assert rebuilt.collection.cluster_names == (
            protocol.collection.cluster_names
        )
        assert rebuilt.design_fingerprint() == protocol.design_fingerprint()
        assert rebuilt.epsilon == pytest.approx(protocol.epsilon)

    def test_json_is_byte_stable(self, protocol):
        document = protocol.to_design(extra={"n_records": 123})
        text = document.to_json()
        assert document.to_json() == text  # deterministic
        reparsed = DesignDocument.from_json(text)
        assert reparsed.to_json() == text  # fixed point
        assert reparsed.params == document.params
        assert reparsed.extra == document.extra

    def test_file_round_trip(self, protocol, tmp_path):
        path = tmp_path / "design.json"
        write_design(path, protocol, {"n_records": 42})
        rebuilt, document = load_design(path)
        assert type(rebuilt) is type(protocol)
        assert document.version == DESIGN_VERSION
        assert document.extra["n_records"] == 42
        # write -> load -> write is byte-identical
        second = tmp_path / "again.json"
        document.write(second)
        assert second.read_bytes() == path.read_bytes()

    def test_subclass_from_design_checks_type(self, protocol, tmp_path):
        path = tmp_path / "design.json"
        write_design(path, protocol, None)
        rebuilt = type(protocol).from_design(path)
        assert type(rebuilt) is type(protocol)
        wrong = (
            RRJoint if not isinstance(protocol, RRJoint) else RRClusters
        )
        with pytest.raises(ServiceError, match="design describes"):
            wrong.from_design(path)

    def test_no_seed_ever(self, protocol):
        payload = protocol.to_design(extra={"n_records": 9}).payload()
        assert "seed" not in json.dumps(payload)

    def test_explicit_matrix_design_not_serializable(self, small_schema):
        from repro.core.matrices import keep_else_uniform_matrix

        explicit = RRIndependent(
            small_schema,
            matrices={
                attr.name: keep_else_uniform_matrix(attr.size, 0.7)
                for attr in small_schema
            },
        )
        with pytest.raises(ServiceError, match="explicit matrices"):
            explicit.to_design()


def _snapshot(root):
    """Every file under ``root`` with its bytes."""
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def _set_version(path, version):
    payload = json.loads(path.read_text())
    payload["version"] = version
    path.write_text(json.dumps(payload, indent=2))


class TestVersioning:
    """Versions 1 and 2 of a design file, and version 1 of ``service.json``
    and ``tenant.json``, store dense-byte matrix digests that no longer
    verify: each is refused, naming its version, and left untouched."""

    @pytest.mark.parametrize("version", [1, 2])
    def test_old_design_version_refused(self, protocol, tmp_path, version):
        path = tmp_path / "design.json"
        write_design(path, protocol, {"n_records": 17})
        _set_version(path, version)
        before = path.read_bytes()
        with pytest.raises(
            ServiceError, match=f"unsupported design version {version}"
        ):
            load_design(path)
        assert path.read_bytes() == before

    def test_tampered_version_rejected(self, protocol, tmp_path):
        path = tmp_path / "design.json"
        write_design(path, protocol, None)
        _set_version(path, DESIGN_VERSION + 1)
        with pytest.raises(ServiceError, match="unsupported design version"):
            load_design(path)

    def test_unknown_protocol_tag_rejected(self, small_schema, tmp_path):
        payload = RRIndependent(small_schema, p=0.7).to_design().payload()
        payload["protocol"] = "RR-Galactic"
        path = tmp_path / "alien.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ServiceError, match="unsupported protocol"):
            load_design(path)

    def test_version_1_service_meta_refused(self, protocol, tmp_path):
        state = tmp_path / "state"
        with CollectorService.for_protocol(protocol, state) as service:
            records = np.zeros((4, protocol.schema.width), dtype=np.int64)
            service.ingest_frame(service.codec.encode(records))
            service.checkpoint()
        _set_version(state / SERVICE_META, 1)
        before = _snapshot(state)
        with pytest.raises(
            ServiceError, match="unsupported service meta version 1"
        ):
            CollectorService.for_protocol(protocol, state)
        assert _snapshot(state) == before

    def test_version_1_tenant_meta_refused(self, protocol, tmp_path):
        root = tmp_path / "root"
        design = tmp_path / "design.json"
        write_design(design, protocol, None)
        manager = TenantManager(root, {"acme": design})
        payload = protocol.to_design().payload()
        manager.open_session(
            "acme",
            "c1",
            schema_fp=payload["schema_fingerprint"],
            design_fp=payload["design_fingerprint"],
        )
        manager.close_all(checkpoint=True)
        _set_version(manager.backend.tenant_dir("acme") / TENANT_META, 1)
        before = _snapshot(root)
        with pytest.raises(
            ServiceError, match="unsupported tenant meta version 1"
        ):
            TenantManager(root, {"acme": design}).open_tenant("acme")
        assert _snapshot(root) == before


class TestFingerprintPinning:
    def test_tampered_schema_rejected(self, protocol, tmp_path):
        path = tmp_path / "design.json"
        write_design(path, protocol, None)
        payload = json.loads(path.read_text())
        payload["schema"][0]["categories"].append("smuggled")
        path.write_text(json.dumps(payload))
        with pytest.raises(ServiceError, match="fingerprint"):
            load_design(path)

    def test_tampered_parameters_rejected(self, protocol, tmp_path):
        path = tmp_path / "design.json"
        write_design(path, protocol, None)
        payload = json.loads(path.read_text())
        if "p" in payload:
            payload["p"] = 0.31
        else:
            payload["attribute_epsilons"][0] += 0.5
        path.write_text(json.dumps(payload))
        with pytest.raises(ServiceError, match="design fingerprint"):
            load_design(path)

    def test_rearranged_equal_size_clusters_rejected(self, tmp_path):
        """Equal-size attributes produce byte-identical matrix
        sequences under any clustering, so the fingerprint must pin the
        *assignment* itself, not just the matrices."""
        from repro.data.schema import Attribute, Schema

        schema = Schema(
            [Attribute(n, ("0", "1")) for n in ("a", "b", "c")]
        )
        original = RRClusters(
            Clustering(schema=schema, clusters=(("a", "b"), ("c",))), p=0.7
        )
        path = tmp_path / "design.json"
        write_design(path, original, None)
        payload = json.loads(path.read_text())
        payload["clusters"] = [["a", "c"], ["b"]]
        path.write_text(json.dumps(payload))
        with pytest.raises(ServiceError, match="design fingerprint"):
            load_design(path)

    def test_tampered_clusters_rejected(self, clustering, tmp_path):
        path = tmp_path / "design.json"
        write_design(path, RRClusters(clustering, p=0.7), None)
        payload = json.loads(path.read_text())
        payload["clusters"] = [["flag"], ["level"], ["color"]]
        path.write_text(json.dumps(payload))
        with pytest.raises(ServiceError, match="design fingerprint"):
            load_design(path)

    def test_tampered_payload_mapping_rejected(self, protocol):
        """`Protocol.from_design` on an already-parsed payload mapping
        applies the same fingerprint verification as the file path —
        tampered parameters with a stale fingerprint are refused."""
        payload = protocol.to_design().payload()
        if "p" in payload:
            payload["p"] = min(0.95, payload["p"] + 0.2)
        else:
            payload["attribute_epsilons"][0] += 0.5
        with pytest.raises(ServiceError, match="design fingerprint"):
            Protocol.from_design(payload)

    def test_payload_mapping_without_fingerprint_rejected(self, protocol):
        payload = protocol.to_design().payload()
        del payload["design_fingerprint"]
        with pytest.raises(ServiceError, match="design fingerprint"):
            Protocol.from_design(payload)

    def test_untampered_payload_mapping_accepted(self, protocol):
        rebuilt = Protocol.from_design(protocol.to_design().payload())
        assert type(rebuilt) is type(protocol)
        assert rebuilt.design_fingerprint() == protocol.design_fingerprint()

    def test_bad_p_rejected_with_source(self, small_schema, tmp_path):
        payload = RRIndependent(small_schema, p=0.7).to_design().payload()
        payload["p"] = 1.5
        path = tmp_path / "bad-p.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ServiceError, match=r"p must be in \(0, 1\)"):
            load_design(path)


class TestForeignDesignsAtTheService:
    def test_state_dir_refuses_other_protocols_design(
        self, small_schema, clustering, tmp_path
    ):
        """A state directory pinned to one design refuses any other —
        including a different protocol over the very same schema."""
        independent = RRIndependent(small_schema, p=0.7)
        clustered = RRClusters(clustering, p=0.7)
        state = tmp_path / "state"
        service = CollectorService.for_protocol(independent, state)
        service.close()
        with pytest.raises(ServiceError, match="pinned"):
            CollectorService.for_protocol(clustered, state)

    def test_state_dir_refuses_same_protocol_other_p(
        self, clustering, tmp_path
    ):
        state = tmp_path / "state"
        CollectorService.for_protocol(RRClusters(clustering, p=0.7), state).close()
        with pytest.raises(ServiceError, match="pinned"):
            CollectorService.for_protocol(RRClusters(clustering, p=0.6), state)

    def test_same_design_reopens(self, clustering, tmp_path):
        state = tmp_path / "state"
        CollectorService.for_protocol(RRClusters(clustering, p=0.7), state).close()
        reopened = CollectorService.for_protocol(
            RRClusters(clustering, p=0.7), state
        )
        assert reopened.n_observed == 0
        reopened.close()
