"""Versioned, protocol-tagged design documents.

A *design document* is the serializable contract between the party
side and the collector side of a deployment: everything estimation
needs to reconstruct a protocol's matrices — the schema, the protocol
tag, and the mechanism parameters — and **nothing more**. In
particular it never carries a randomization seed: the party-side
draws are data-independent, so a seed in collector hands would reveal
exactly which records were kept and void the RR guarantee.

Format (flat JSON, one object)::

    {
      "version": 3,                  # document format version
      "protocol": "RR-Clusters",     # registered protocol tag
      "schema": [{name, categories, kind}, ...],
      ... mechanism parameters ...   # p / names / attribute_epsilons /
                                     # clusters, per protocol
      "schema_fingerprint": <u64>,   # pins the schema body
      "design_fingerprint": "<hex>", # pins the reconstructed matrices
      ... extra annotations ...      # e.g. n_records (not fingerprinted)
    }

Version 3 fingerprints each constant-diagonal matrix by its
parameters ``(r, d, o)``. Versions 1 and 2 pinned the dense-byte
digests of earlier releases, which no longer verify, so they are
refused with a :class:`~repro.exceptions.ServiceError` naming the
version; write the design again from its protocol.

Loading re-derives both fingerprints — a document whose schema body or
mechanism parameters were edited is rejected, not trusted — and gates
on the version field. Protocol classes register themselves by
``design_tag`` (:mod:`repro.protocols.base`), so ``load_design``
dispatches without a hardcoded class list and third-party protocols
can join the format.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

import repro.protocols  # noqa: F401  — populates the design-tag registry
from repro.data.schema import Schema
from repro.exceptions import ServiceError
from repro.protocols.base import Protocol, protocol_for_tag
from repro.service.codec import (
    design_fingerprint,
    schema_fingerprint,
    schema_from_dict,
    schema_to_dict,
)

__all__ = [
    "DESIGN_VERSION",
    "SUPPORTED_DESIGN_VERSIONS",
    "DesignDocument",
    "parse_design",
    "load_design",
    "write_design",
]

#: Format version newly written documents carry.
DESIGN_VERSION = 3

#: Format versions :func:`load_design` accepts.
SUPPORTED_DESIGN_VERSIONS = (3,)

#: Keys owned by the document envelope — mechanism parameters and
#: extra annotations may not collide with them.
_RESERVED_KEYS = frozenset(
    ("version", "protocol", "schema", "schema_fingerprint",
     "design_fingerprint")
)


@dataclass(frozen=True)
class DesignDocument:
    """One protocol design as a versioned, fingerprinted JSON payload.

    Build one from a protocol with
    :meth:`~repro.protocols.base.Protocol.to_design`, or parse one with
    :meth:`from_payload` / :func:`load_design`. ``build()`` goes the
    other way and reconstructs the protocol instance.
    """

    protocol: str
    schema: Schema
    params: Mapping
    version: int = DESIGN_VERSION
    extra: Mapping = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.version not in SUPPORTED_DESIGN_VERSIONS:
            raise ServiceError(
                f"unsupported design version {self.version!r}; supported: "
                f"{SUPPORTED_DESIGN_VERSIONS}"
            )
        for label, mapping in (("parameter", self.params),
                               ("extra", self.extra)):
            clash = _RESERVED_KEYS.intersection(mapping)
            if clash:
                raise ServiceError(
                    f"design {label} keys collide with the document "
                    f"envelope: {sorted(clash)}"
                )
        clash = set(self.params).intersection(self.extra)
        if clash:
            raise ServiceError(
                f"extra keys collide with mechanism parameters: "
                f"{sorted(clash)}"
            )

    # ------------------------------------------------------------------
    def build(self) -> Protocol:
        """Reconstruct the protocol instance this document describes."""
        cls = protocol_for_tag(self.protocol)
        return cls._from_design_params(self.schema, dict(self.params))

    def fingerprint(self) -> str:
        """Fingerprint of the reconstructed design (schema + matrices).

        Computed once per document (the protocol — and its matrices —
        must be rebuilt from the parameters to derive it) and cached:
        ``payload()``/``to_json()``/``write()`` all need it, and a
        frozen document's fingerprint cannot change.
        """
        cached = self.__dict__.get("_fingerprint")
        if cached is None:
            protocol = self.build()
            cached = design_fingerprint(
                protocol.schema,
                protocol.matrices,
                names=protocol.collection.cluster_names,
            )
            object.__setattr__(self, "_fingerprint", cached)
        return cached

    def payload(self) -> dict:
        """The full JSON-serializable document, fingerprints included."""
        return {
            "version": self.version,
            "protocol": self.protocol,
            "schema": schema_to_dict(self.schema),
            **dict(self.params),
            "schema_fingerprint": schema_fingerprint(self.schema),
            "design_fingerprint": self.fingerprint(),
            **dict(self.extra),
        }

    def to_json(self, *, indent: "int | None" = None) -> str:
        """Canonical JSON text: sorted keys, so equal documents are
        byte-equal however they were assembled."""
        if indent is None:
            return json.dumps(
                self.payload(), sort_keys=True, separators=(",", ":")
            )
        return json.dumps(self.payload(), sort_keys=True, indent=indent)

    def write(self, path) -> None:
        """Write the document as human-readable (indented) JSON."""
        Path(path).write_text(self.to_json(indent=2), encoding="utf-8")

    # ------------------------------------------------------------------
    @classmethod
    def from_payload(
        cls, payload: Mapping, *, source: str = "design"
    ) -> "DesignDocument":
        """Parse and structurally validate a raw payload mapping.

        Checks the version, the protocol tag (against the registry),
        the schema body against its fingerprint, and the mechanism
        parameters' types — everything except the matrix-level design
        fingerprint, which :func:`load_design` verifies after building
        the protocol.
        """
        if not isinstance(payload, Mapping):
            raise ServiceError(f"{source}: design payload must be an object")
        version = payload.get("version")
        if version not in SUPPORTED_DESIGN_VERSIONS:
            raise ServiceError(
                f"{source}: unsupported design version {version!r} "
                f"(supported: {SUPPORTED_DESIGN_VERSIONS}); write the "
                "design again from its protocol"
            )
        tag = payload.get("protocol")
        protocol_cls = protocol_for_tag(tag)  # raises on unknown tags
        schema = schema_from_dict(payload.get("schema", ()))
        if schema_fingerprint(schema) != payload.get("schema_fingerprint"):
            raise ServiceError(
                f"{source}: schema fingerprint does not match the schema "
                "body; design file was edited or corrupted"
            )
        params = protocol_cls._params_from_payload(payload, source)
        claimed = _RESERVED_KEYS.union(params)
        extra = {
            key: value
            for key, value in payload.items()
            if key not in claimed
        }
        return cls(
            protocol=tag,
            schema=schema,
            params=params,
            version=int(version),
            extra=extra,
        )

    @classmethod
    def from_json(
        cls, text: str, *, source: str = "design"
    ) -> "DesignDocument":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ServiceError(f"{source}: not valid JSON: {exc}") from None
        return cls.from_payload(payload, source=source)

    def __repr__(self) -> str:
        return (
            f"DesignDocument(protocol={self.protocol!r}, "
            f"version={self.version}, m={self.schema.width})"
        )


def parse_design(
    payload: Mapping, *, source: str = "design"
) -> "tuple[Protocol, DesignDocument]":
    """Verify a raw design payload end to end and rebuild its protocol.

    The full trust boundary for payloads of unknown provenance: on top
    of :meth:`DesignDocument.from_payload`'s structural checks, the
    matrices are reconstructed from the parameters and re-fingerprinted
    against the payload's ``design_fingerprint`` — a payload whose
    parameters were tampered with (or whose fingerprint is missing) is
    refused even when its schema still matches.
    """
    document = DesignDocument.from_payload(payload, source=source)
    protocol = document.build()
    recomputed = design_fingerprint(
        protocol.schema,
        protocol.matrices,
        names=protocol.collection.cluster_names,
    )
    if recomputed != payload.get("design_fingerprint"):
        raise ServiceError(
            f"{source}: design fingerprint mismatch; matrices cannot be "
            "reconstructed from this file"
        )
    # Seed the cache with the verified value, so a later payload() /
    # write() of this document does not rebuild the protocol again.
    object.__setattr__(document, "_fingerprint", recomputed)
    return protocol, document


def load_design(path) -> "tuple[Protocol, DesignDocument]":
    """Load a design file, verify it end to end, rebuild its protocol.

    Accepts :data:`SUPPORTED_DESIGN_VERSIONS` documents; verification
    is :func:`parse_design` applied to the file's payload.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ServiceError(f"{path}: cannot read design file: {exc}") from None
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ServiceError(f"{path}: not valid JSON: {exc}") from None
    return parse_design(payload, source=str(path))


def write_design(path, protocol: Protocol, extra: "Mapping | None" = None) -> None:
    """Write a protocol's design document to ``path``.

    Every mechanism parameter — including the keep probability — is
    derived from the protocol object itself, so the file can never
    disagree with the design that randomized the data. ``extra``
    carries non-fingerprinted annotations (e.g. ``n_records``).
    """
    protocol.to_design(extra=extra).write(path)
