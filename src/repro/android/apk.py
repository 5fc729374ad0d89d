"""APK files: manifest, payload, signature, serialization, repackaging.

The on-"disk" format is a simple length-prefixed container ending in the
ZIP *end of central directory* magic (``PK\\x05\\x06``) — the marker the
paper's "wait-and-see" attacker looks for at the end of the file to
detect download completion without FileObserver (Section III-B).

Repackaging (:func:`repackage`) keeps the victim's ``AndroidManifest``
byte-for-byte while swapping the payload and re-signing with the
attacker's key.  Because ``installPackageWithVerification`` and the PIA
only checksum the *manifest*, a repackaged APK sails through both
(Section III-B, "Attack on new Amazon appstore" / "Attack on PIA").
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from typing import List, Optional, Tuple

from repro.errors import AndroidError
from repro.android.permissions import PermissionDefinition, ProtectionLevel
from repro.android.signing import Certificate, Signature, SigningKey

APK_MAGIC = b"APK1"
EOCD_MAGIC = b"PK\x05\x06"

# Content-addressed artifact caches, shared per-process.  Builds and
# signatures are pure functions of their inputs (keys are deterministic
# from (owner, key_id)), and ``Apk``/``AndroidManifest`` are frozen, so
# identical build requests may share one instance.  Fleet campaigns
# build the same handful of packages thousands of times per shard.
_CACHE_CAP = 4096
_BUILD_CACHE: dict = {}
_PARSE_CACHE: dict = {}


@dataclass(frozen=True)
class PermissionSpec:
    """A ``<permission>`` element: a definition carried by a manifest."""

    name: str
    level: str = "normal"
    group: Optional[str] = None

    def to_definition(self, defined_by: str) -> PermissionDefinition:
        """Materialize as a registry definition owned by ``defined_by``."""
        return PermissionDefinition(
            name=self.name,
            level=ProtectionLevel(self.level),
            group=self.group,
            defined_by=defined_by,
        )


@dataclass(frozen=True)
class AndroidManifest:
    """The parts of AndroidManifest.xml the installation pipeline reads."""

    package: str
    version_code: int = 1
    label: str = ""
    icon: str = ""
    uses_permissions: Tuple[str, ...] = ()
    defines_permissions: Tuple[PermissionSpec, ...] = ()

    def to_bytes(self) -> bytes:
        """Canonical byte serialization (what manifest checksums cover).

        Memoized per instance: the manifest is frozen, and hot paths
        (signing, container serialization, checksum verification)
        re-serialize the same manifest many times per install.
        """
        cached = self.__dict__.get("_bytes")
        if cached is not None:
            return cached
        payload = {
            "package": self.package,
            "version_code": self.version_code,
            "label": self.label,
            "icon": self.icon,
            "uses_permissions": list(self.uses_permissions),
            "defines_permissions": [
                {"name": spec.name, "level": spec.level, "group": spec.group}
                for spec in self.defines_permissions
            ],
        }
        data = json.dumps(payload, sort_keys=True).encode("utf-8")
        object.__setattr__(self, "_bytes", data)
        return data

    @staticmethod
    def from_bytes(data: bytes) -> "AndroidManifest":
        """Parse a manifest previously produced by :meth:`to_bytes`."""
        payload = json.loads(data.decode("utf-8"))
        return AndroidManifest(
            package=payload["package"],
            version_code=payload["version_code"],
            label=payload["label"],
            icon=payload["icon"],
            uses_permissions=tuple(payload["uses_permissions"]),
            defines_permissions=tuple(
                PermissionSpec(item["name"], item["level"], item["group"])
                for item in payload["defines_permissions"]
            ),
        )

    def checksum(self) -> str:
        """SHA-256 of the canonical manifest bytes (memoized).

        This is the *insufficient* integrity anchor used by
        ``installPackageWithVerification`` and the PIA.
        """
        cached = self.__dict__.get("_checksum")
        if cached is None:
            cached = hashlib.sha256(self.to_bytes()).hexdigest()
            object.__setattr__(self, "_checksum", cached)
        return cached


@dataclass(frozen=True)
class Apk:
    """A complete, signed application package."""

    manifest: AndroidManifest
    payload: bytes
    signature: Signature

    @property
    def package(self) -> str:
        """Package name, e.g. ``com.amazon.venezia``."""
        return self.manifest.package

    @property
    def version_code(self) -> int:
        """Monotonic version code."""
        return self.manifest.version_code

    @property
    def certificate(self) -> Certificate:
        """Signing certificate embedded in the signature block."""
        return self.signature.certificate

    def signed_content(self) -> bytes:
        """The bytes the signature covers: manifest + payload."""
        return self.manifest.to_bytes() + self.payload

    def verify_signature(self) -> bool:
        """True if the embedded signature matches the content."""
        return self.signature.matches(self.signed_content())

    def to_bytes(self) -> bytes:
        """Serialize to the on-disk container format (ends with EOCD).

        Memoized per instance — every publish/download/verify round-trip
        re-serializes the same immutable package.
        """
        cached = self.__dict__.get("_bytes")
        if cached is not None:
            return cached
        manifest_bytes = self.manifest.to_bytes()
        cert_bytes = json.dumps(
            {"fingerprint": self.certificate.fingerprint, "owner": self.certificate.owner}
        ).encode("utf-8")
        sig_bytes = self.signature.value.encode("ascii")
        chunks = [APK_MAGIC]
        for blob in (manifest_bytes, self.payload, cert_bytes, sig_bytes):
            chunks.append(len(blob).to_bytes(8, "big"))
            chunks.append(blob)
        chunks.append(EOCD_MAGIC)
        data = b"".join(chunks)
        object.__setattr__(self, "_bytes", data)
        return data

    @staticmethod
    def from_bytes(data: bytes) -> "Apk":
        """Parse a container; raises :class:`MalformedApk` when truncated.

        Parses are cached by content: installers re-parse the same
        downloaded bytes on every verification pass, and ``Apk`` is
        immutable so sharing the parsed instance is safe.
        """
        cached = _PARSE_CACHE.get(data)
        if cached is not None:
            return cached
        apk = Apk._parse(data)
        if len(_PARSE_CACHE) >= _CACHE_CAP:
            _PARSE_CACHE.clear()
        _PARSE_CACHE[data] = apk
        object.__setattr__(apk, "_bytes", data)
        return apk

    @staticmethod
    def _parse(data: bytes) -> "Apk":
        if not data.startswith(APK_MAGIC):
            raise MalformedApk("bad magic")
        if not data.endswith(EOCD_MAGIC):
            raise MalformedApk("missing end-of-central-directory record")
        body = data[len(APK_MAGIC):-len(EOCD_MAGIC)]
        blobs: List[bytes] = []
        offset = 0
        for _ in range(4):
            if offset + 8 > len(body):
                raise MalformedApk("truncated length header")
            length = int.from_bytes(body[offset:offset + 8], "big")
            offset += 8
            if offset + length > len(body):
                raise MalformedApk("truncated blob")
            blobs.append(body[offset:offset + length])
            offset += length
        if offset != len(body):
            raise MalformedApk("trailing garbage")
        manifest = AndroidManifest.from_bytes(blobs[0])
        cert_payload = json.loads(blobs[2].decode("utf-8"))
        certificate = Certificate(
            fingerprint=cert_payload["fingerprint"], owner=cert_payload["owner"]
        )
        signature = Signature(certificate=certificate, value=blobs[3].decode("ascii"))
        return Apk(manifest=manifest, payload=blobs[1], signature=signature)

    def file_hash(self) -> str:
        """SHA-256 over the whole container (what installers verify);
        memoized alongside the serialized bytes."""
        cached = self.__dict__.get("_file_hash")
        if cached is None:
            cached = hashlib.sha256(self.to_bytes()).hexdigest()
            object.__setattr__(self, "_file_hash", cached)
        return cached

    @property
    def size_bytes(self) -> int:
        """Size of the serialized container."""
        return len(self.to_bytes())

    def __repr__(self) -> str:
        return (
            f"Apk({self.package!r} v{self.version_code}, "
            f"signed by {self.certificate.owner})"
        )


class MalformedApk(AndroidError):
    """The byte stream is not a complete APK container."""


def file_is_complete(data: bytes) -> bool:
    """The wait-and-see attacker's check: does the EOCD record exist yet?"""
    return data.endswith(EOCD_MAGIC) and data.startswith(APK_MAGIC)


def hash_bytes(data: bytes) -> str:
    """SHA-256 of arbitrary bytes (installer-side file hashing)."""
    return hashlib.sha256(data).hexdigest()


class ApkBuilder:
    """Fluent builder for test/corpus APKs."""

    def __init__(self, package: str) -> None:
        self._package = package
        self._version_code = 1
        self._label = package.rsplit(".", 1)[-1]
        self._icon = f"icon:{package}"
        self._uses: List[str] = []
        self._defines: List[PermissionSpec] = []
        self._payload = b""

    def version(self, version_code: int) -> "ApkBuilder":
        """Set the version code."""
        self._version_code = version_code
        return self

    def label(self, label: str) -> "ApkBuilder":
        """Set the user-visible app name."""
        self._label = label
        return self

    def icon(self, icon: str) -> "ApkBuilder":
        """Set the (symbolic) icon."""
        self._icon = icon
        return self

    def uses_permission(self, *names: str) -> "ApkBuilder":
        """Add ``<uses-permission>`` entries."""
        self._uses.extend(names)
        return self

    def defines_permission(self, name: str, level: str = "normal",
                           group: Optional[str] = None) -> "ApkBuilder":
        """Add a ``<permission>`` definition carried by this APK."""
        self._defines.append(PermissionSpec(name=name, level=level, group=group))
        return self

    def payload(self, payload: bytes) -> "ApkBuilder":
        """Set the code/resources blob."""
        self._payload = payload
        return self

    def payload_size(self, size_bytes: int) -> "ApkBuilder":
        """Set a synthetic payload of ``size_bytes`` deterministic bytes."""
        seed = hashlib.sha256(self._package.encode("utf-8")).digest()
        repeats = size_bytes // len(seed) + 1
        self._payload = (seed * repeats)[:size_bytes]
        return self

    def build(self, key: SigningKey) -> Apk:
        """Sign and return the APK.

        Builds are content-addressed: the cache key covers every
        manifest field, the payload, and the signing key's certificate
        fingerprint, so two identical build requests share one frozen
        ``Apk`` instance (and its serialization/hash memos).
        """
        cache_key = (
            self._package, self._version_code, self._label, self._icon,
            tuple(self._uses), tuple(self._defines), self._payload,
            key.certificate.fingerprint,
        )
        cached = _BUILD_CACHE.get(cache_key)
        if cached is not None:
            return cached
        manifest = AndroidManifest(
            package=self._package,
            version_code=self._version_code,
            label=self._label,
            icon=self._icon,
            uses_permissions=tuple(self._uses),
            defines_permissions=tuple(self._defines),
        )
        content = manifest.to_bytes() + self._payload
        apk = Apk(manifest=manifest, payload=self._payload, signature=key.sign(content))
        if len(_BUILD_CACHE) >= _CACHE_CAP:
            _BUILD_CACHE.clear()
        _BUILD_CACHE[cache_key] = apk
        return apk


def repackage(original: Apk, attacker_key: SigningKey,
              payload: bytes = b"<malicious payload>",
              keep_label_and_icon: bool = True) -> Apk:
    """Repackage ``original`` with attacker code but the same manifest.

    The returned APK has an **identical manifest checksum** to the
    original (defeating manifest-based verification) and, by default,
    the original's label and icon (defeating the PIA consent dialog's
    name/icon display).  Only the certificate differs — which nothing in
    the vulnerable pipeline checks.
    """
    manifest = original.manifest
    if not keep_label_and_icon:
        manifest = replace(manifest, label="attacker", icon="icon:attacker")
    content = manifest.to_bytes() + payload
    return Apk(manifest=manifest, payload=payload, signature=attacker_key.sign(content))
