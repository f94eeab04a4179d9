"""One state-root resolver: server, tenant, collector or empty — and a
typed refusal for roots of the removed multi-process sharded collector.

A directory holding ``sharding.json`` was written by the fleet, whose
per-shard journals no flat service may touch: every entry point must
refuse it before creating, locking or changing any file in it.
"""

import numpy as np
import pytest

from repro.cli import main
from repro.design import write_design
from repro.exceptions import ServiceError
from repro.protocols import RRIndependent
from repro.service import CollectorService, scrub_state_dir
from repro.service.codec import ReportCodec
from repro.service.health import storage_health
from repro.service.journal import (
    SHARDING_META,
    FrameWriter,
    resolve_state_root,
)
from repro.service.net.storage import save_server_meta, save_tenant_meta

REMOVED = "sharded roots were removed"


def _tree(root):
    """Every path under ``root`` with its bytes (None for directories)."""
    return {
        str(path.relative_to(root)): (
            None if path.is_dir() else path.read_bytes()
        )
        for path in sorted(root.rglob("*"))
    }


@pytest.fixture
def protocol(small_schema):
    return RRIndependent(small_schema, p=0.7)


@pytest.fixture
def design(protocol, tmp_path):
    path = tmp_path / "design.json"
    write_design(path, protocol, None)
    return path


@pytest.fixture
def reports(protocol, tmp_path):
    codes = np.array([[0, 1, 2], [1, 0, 3], [1, 2, 0]], dtype=np.int64)
    path = tmp_path / "reports.rrw"
    with FrameWriter(path) as writer:
        writer.write(ReportCodec(protocol.schema).encode(codes))
    return path


@pytest.fixture
def sharded_root(tmp_path):
    """A root as the fleet left it: topology pin plus shard state."""
    root = tmp_path / "fleet"
    (root / "shards" / "shard-00").mkdir(parents=True)
    (root / SHARDING_META).write_text(
        '{"version": 1, "workers": 2, "router": "splitmix64", '
        '"schema_fingerprint": 1}\n'
    )
    (root / "shards" / "shard-00" / "ingest.log").write_bytes(b"\x00" * 16)
    return root


def _open_service(protocol, root, design, reports):
    CollectorService.for_protocol(protocol, root)


def _cli(*argv):
    def run(protocol, root, design, reports):
        return main(
            [a.format(root=root, design=design, reports=reports) for a in argv]
        )

    return run


ENTRY_POINTS = {
    "CollectorService.for_protocol": _open_service,
    "ingest --resume": _cli(
        "ingest", "{reports}", "-s", "{root}", "--design", "{design}",
        "--resume",
    ),
    "compact": _cli("compact", "-s", "{root}", "--design", "{design}"),
    "stats -s": _cli("stats", "-s", "{root}"),
    "scrub -s": _cli("scrub", "-s", "{root}"),
    "resolve_state_root": lambda protocol, root, *_: resolve_state_root(root),
    "storage_health": lambda protocol, root, *_: storage_health(root),
    "scrub_state_dir": lambda protocol, root, *_: scrub_state_dir(root),
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_sharded_root_is_refused_untouched(
    entry, protocol, sharded_root, design, reports, capsys
):
    before = _tree(sharded_root)
    try:
        outcome = ENTRY_POINTS[entry](protocol, sharded_root, design, reports)
    except ServiceError as exc:
        assert REMOVED in str(exc)
    else:
        # CLI entry points report the typed error and exit 1.
        assert outcome == 1
        assert REMOVED in capsys.readouterr().err
    assert _tree(sharded_root) == before


def test_layouts_resolve_from_markers(protocol, tmp_path):
    assert resolve_state_root(tmp_path / "missing") == "empty"
    with CollectorService.for_protocol(protocol, tmp_path / "flat") as service:
        service.ingest_frame(
            ReportCodec(protocol.schema).encode(np.zeros((2, 3), np.int64))
        )
    assert resolve_state_root(tmp_path / "flat") == "collector"
    save_server_meta(tmp_path / "server")
    assert resolve_state_root(tmp_path / "server") == "server"
    save_tenant_meta(
        tmp_path / "tenant", tenant="t", protocol="independent",
        schema_fp=1, design_fp="x",
    )
    assert resolve_state_root(tmp_path / "tenant") == "tenant"
