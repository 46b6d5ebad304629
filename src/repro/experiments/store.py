"""Content-addressed, on-disk store of session results.

A §6-scale evaluation and the CAVA tuning loop replay the same
(scheme, video, trace, faults) sessions over and over: every
``repro compare`` starts cold, every ``grid_search`` re-scores points it
already scored. Sessions are pure functions of their inputs — fully
seeded, no wall-clock, no ambient state — so their results can be cached
*by content*: the store keys each :class:`~repro.player.metrics.SessionMetrics`
by a stable BLAKE2 digest of everything that determines it:

- the scheme configuration, via its factory (scheme name, network
  convention, ``algorithm_factory`` / ``estimator_factory`` contents);
- the full video asset (manifest tables, per-chunk quality arrays, and
  the classifier's ground truth) via
  :func:`repro.video.manifest_io.video_digest`;
- the exact trace timeline via :meth:`NetworkTrace.digest`;
- the fault plan (frozen dataclass, hashed by value);
- the session config;
- the golden-snapshot schema version plus the metric field list, so a
  semantic change to simulation output invalidates every cached entry
  instead of replaying stale results.

Digests use explicit content bytes only — never ``id()`` or Python's
per-process-salted ``hash()`` — so equal inputs produce identical keys
across processes and across fork/spawn start methods.

Key derivation is one function, :func:`session_keys`. The parts are
hashed in a fixed order, and the trace digest is the last part but one,
so all that comes before it is the same for every session of a spec.
That prefix is hashed once per spec; each trace's key copies the
hasher state and feeds only its trace digest and the pre-encoded config
fingerprint. The bytes hashed are exactly those of hashing each key
from scratch, so sharing the prefix changes no key
(``tests/experiments/test_store.py::TestGoldenKeys`` pins them).

On-disk layout (see docs/architecture.md): one file per session at
``<root>/objects/<key[:2]>/<key>.json``, format version 3. The file is
one header line and then the payload::

    {"schema":3,"golden_schema":G,"key":"<key>","checksum":"<32 hex>"}
    [<the 15 SessionMetrics values in field order>]

The payload is a compact JSON array; field names are not stored, since
the field list is folded into every key. The checksum is BLAKE2b-128 of
the payload bytes exactly as stored, so a read checks the bytes it read
and never re-encodes them: the header must equal the one expected for
the key (one comparison covers both schema versions and the key), the
payload must hash to the header's checksum, and it must parse as a list
of 15 values. Floats survive the JSON round-trip bit-exactly
(shortest-round-trip ``repr``; ``NaN`` and ``Infinity`` as JSON
extensions), so a warm result is *bit-identical* to the cold
computation it replaced. Writes are atomic
(:func:`repro.util.atomic.write_atomic`: a uniquely named temp file,
then ``os.replace``); a torn, stale or corrupted entry fails a check and
reads as a miss, never as wrong data. A writer killed before its rename
leaves a temp file, which ``describe`` counts, ``verify`` reports and
``gc`` removes once it is :data:`ORPHAN_TEMP_AGE_S` old.

Observability: the store itself stays telemetry-free — the sweep engine
wraps its lookup scans and unit write-backs in
``MetricsRegistry.timer()`` histograms
(``repro_store_lookup_seconds`` / ``repro_store_write_seconds``) and
brackets the cached-vs-missing partition with a ``store.partition``
span, so store costs appear in the Chrome trace and the Prometheus
dump without this module importing the telemetry layer.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import operator
import os
import time
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.experiments.golden import GOLDEN_SCHEMA_VERSION
from repro.network.traces import NetworkTrace
from repro.player.metrics import SessionMetrics
from repro.player.session import SessionConfig
from repro.util.atomic import TEMP_GLOB, write_atomic
from repro.video.manifest_io import video_digest
from repro.video.model import VideoAsset

__all__ = [
    "STORE_SCHEMA_VERSION",
    "ORPHAN_TEMP_AGE_S",
    "UncacheableValueError",
    "fingerprint",
    "session_key",
    "session_keys",
    "StoreStats",
    "EntryProblem",
    "SessionStore",
]

#: Store entry format version. Combined with
#: :data:`~repro.experiments.golden.GOLDEN_SCHEMA_VERSION` (the semantic
#: version of simulation output) in every key and entry header. Version
#: 2 retired entries written while batch MPC/RobustMPC could pick a
#: different level than the scalar player; version 3 is the header line
#: plus positional payload, checksummed over the stored bytes.
STORE_SCHEMA_VERSION = 3

#: Age in seconds after which ``gc`` removes a temp file left by an
#: interrupted write. A write takes microseconds, so a temp file this old
#: has no writer left; a younger one may belong to a write in progress.
ORPHAN_TEMP_AGE_S = 3600.0

#: The exact field list a cached payload must carry, in payload order;
#: folded into every key so a SessionMetrics schema change invalidates
#: old entries.
_METRIC_FIELDS: Tuple[str, ...] = tuple(
    f.name for f in dataclasses.fields(SessionMetrics)
)
_metric_values = operator.attrgetter(*_METRIC_FIELDS)

#: The entry header is ``_HEADER_HEAD + key + _HEADER_CHECKSUM +
#: <32 hex digits> + _HEADER_END``: the compact JSON encoding of
#: ``{"schema", "golden_schema", "key", "checksum"}`` in that order.
_HEADER_HEAD = b'{"schema":%d,"golden_schema":%d,"key":"' % (
    STORE_SCHEMA_VERSION,
    GOLDEN_SCHEMA_VERSION,
)
_HEADER_CHECKSUM = b'","checksum":"'
_HEADER_END = b'"}\n'
_HEADER_TAIL = 32 + len(_HEADER_END)
_COMPACT_JSON = json.JSONEncoder(separators=(",", ":"))

#: One ``os.read`` of this size takes a whole entry (a few hundred bytes);
#: a larger file is read on to its end.
_READ_BYTES = 4096


class UncacheableValueError(TypeError):
    """A session input has no stable content encoding (e.g. a lambda).

    The sweep engine treats specs carrying such inputs as uncacheable —
    they compute normally, results just never enter the store.
    """


def _encode(obj: object, update: Callable[[bytes], None]) -> None:
    """Feed a canonical, type-tagged byte encoding of ``obj`` to ``update``.

    Covers the value shapes session inputs are made of: primitives,
    containers, (frozen) dataclasses, numpy arrays, and module-level
    callables/classes. Anything else — notably lambdas and closures,
    whose behaviour has no stable content identity — raises
    :class:`UncacheableValueError`.
    """
    if obj is None:
        update(b"N")
    elif obj is True:
        update(b"T")
    elif obj is False:
        update(b"F")
    elif isinstance(obj, int):
        update(b"i" + str(obj).encode("ascii") + b";")
    elif isinstance(obj, float):
        update(b"f" + obj.hex().encode("ascii") + b";")
    elif isinstance(obj, str):
        raw = obj.encode("utf-8")
        update(b"s" + str(len(raw)).encode("ascii") + b":" + raw)
    elif isinstance(obj, bytes):
        update(b"b" + str(len(obj)).encode("ascii") + b":" + obj)
    elif isinstance(obj, np.ndarray):
        contiguous = np.ascontiguousarray(obj)
        update(b"a" + contiguous.dtype.str.encode("ascii"))
        update(repr(contiguous.shape).encode("ascii"))
        update(contiguous.tobytes())
    elif isinstance(obj, (tuple, list)):
        update(b"(" if isinstance(obj, tuple) else b"[")
        for item in obj:
            _encode(item, update)
        update(b")")
    elif isinstance(obj, dict):
        update(b"{")
        try:
            items = sorted(obj.items())
        except TypeError:
            items = sorted(obj.items(), key=lambda kv: repr(kv[0]))
        for key, value in items:
            _encode(key, update)
            _encode(value, update)
        update(b"}")
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        cls = type(obj)
        update(b"D" + f"{cls.__module__}.{cls.__qualname__}".encode("utf-8") + b";")
        for field in dataclasses.fields(obj):
            _encode(field.name, update)
            _encode(getattr(obj, field.name), update)
        update(b";")
    elif isinstance(obj, type) or callable(obj):
        qualname = getattr(obj, "__qualname__", "")
        module = getattr(obj, "__module__", "")
        if not qualname or "<lambda>" in qualname or "<locals>" in qualname:
            raise UncacheableValueError(
                f"cannot derive a stable content digest for {obj!r}: lambdas and "
                "closures have no content identity; use a module-level function "
                "or a dataclass with __call__ (e.g. CavaFactory)"
            )
        update(b"Q" + f"{module}.{qualname}".encode("utf-8") + b";")
    else:
        raise UncacheableValueError(
            f"cannot derive a stable content digest for {type(obj).__name__!r} "
            f"value {obj!r}"
        )


def fingerprint(obj: object) -> str:
    """Stable hex digest of any supported session-input value."""
    hasher = hashlib.blake2b(digest_size=16)
    _encode(obj, hasher.update)
    return hasher.hexdigest()


#: Hasher fed the schema-version pair and the metric field list, the
#: part every key starts with; each key derivation copies it.
_SCHEMA_HASHER = hashlib.blake2b(digest_size=20)
_encode(
    ("schema", STORE_SCHEMA_VERSION, GOLDEN_SCHEMA_VERSION, _METRIC_FIELDS),
    _SCHEMA_HASHER.update,
)


def session_keys(
    scheme: str,
    network: str,
    algorithm_factory: Optional[Callable],
    estimator_factory: Optional[Callable],
    fault_plan: object,
    video_hexdigest: str,
    trace_hexdigests: Sequence[str],
    config: SessionConfig,
) -> List[str]:
    """The store keys of one spec's sessions, one per trace digest.

    Every argument that can influence the resulting
    :class:`SessionMetrics` participates; the schema-version pair and the
    metric field list are folded in so output-format changes invalidate
    the store wholesale. Only the trace digest differs between the
    sessions of a spec, and it is the last part but one, so everything
    before it is hashed once and each key copies that state, then feeds
    its trace digest and the pre-encoded config fingerprint.
    """
    prefix = _SCHEMA_HASHER.copy()
    for part in (
        scheme,
        network,
        fingerprint(algorithm_factory),
        fingerprint(estimator_factory),
        fingerprint(fault_plan),
        video_hexdigest,
    ):
        _encode(part, prefix.update)
    suffix = bytearray()
    _encode(fingerprint(config), suffix.extend)
    keys: List[str] = []
    for trace_hexdigest in trace_hexdigests:
        hasher = prefix.copy()
        _encode(trace_hexdigest, hasher.update)
        hasher.update(suffix)
        keys.append(hasher.hexdigest())
    return keys


def session_key(
    scheme: str,
    network: str,
    algorithm_factory: Optional[Callable],
    estimator_factory: Optional[Callable],
    fault_plan: object,
    video_hexdigest: str,
    trace_hexdigest: str,
    config: SessionConfig,
) -> str:
    """The store key for one fully specified session (see :func:`session_keys`)."""
    (key,) = session_keys(
        scheme,
        network,
        algorithm_factory,
        estimator_factory,
        fault_plan,
        video_hexdigest,
        (trace_hexdigest,),
        config,
    )
    return key


@dataclasses.dataclass(frozen=True)
class StoreStats:
    """In-process store counters (one :class:`SessionStore` instance)."""

    hits: int = 0
    misses: int = 0
    corrupt: int = 0
    puts: int = 0
    bytes_read: int = 0
    bytes_written: int = 0


@dataclasses.dataclass(frozen=True)
class EntryProblem:
    """One defective store entry found by :meth:`SessionStore.verify`."""

    path: Path
    problem: str

    def __str__(self) -> str:
        return f"{self.path}: {self.problem}"


def _payload_checksum(payload: bytes) -> bytes:
    return hashlib.blake2b(payload, digest_size=16).hexdigest().encode("ascii")


def _read_bytes(path: str) -> bytes:
    """The whole file at ``path``, with raw ``os`` calls (no buffered IO)."""
    fd = os.open(path, os.O_RDONLY)
    try:
        raw = os.read(fd, _READ_BYTES)
        if len(raw) == _READ_BYTES:
            parts = [raw]
            while parts[-1]:
                parts.append(os.read(fd, _READ_BYTES))
            raw = b"".join(parts)
    finally:
        os.close(fd)
    return raw


def _entry_values(raw: bytes, key: str) -> Optional[list]:
    """The payload values of entry bytes ``raw`` stored under ``key``.

    None when the entry is stale or corrupt: its header is not the one
    expected for ``key`` under the current schema versions, the payload
    does not hash to the header's checksum (this also rejects any
    truncation), or the payload is not UTF-8 JSON holding a list of one
    value per metric field.
    """
    head = _HEADER_HEAD + key.encode("utf-8", "surrogateescape") + _HEADER_CHECKSUM
    start = len(head) + _HEADER_TAIL
    payload = raw[start:]
    if not raw.startswith(head) or raw[len(head):start] != (
        _payload_checksum(payload) + _HEADER_END
    ):
        return None
    try:
        values = json.loads(payload.decode("utf-8"))
    except ValueError:
        return None
    if type(values) is not list or len(values) != len(_METRIC_FIELDS):
        return None
    return values


def _diagnose(raw: bytes) -> str:
    """Why an entry that failed :func:`_entry_values` failed: stale or corrupt."""
    try:
        header = json.loads(raw.split(b"\n", 1)[0].decode("utf-8"))
    except ValueError:
        return "corrupt: header is not valid JSON"
    if isinstance(header, dict) and (
        header.get("schema") != STORE_SCHEMA_VERSION
        or header.get("golden_schema") != GOLDEN_SCHEMA_VERSION
    ):
        return (
            f"stale: schema {header.get('schema')}/{header.get('golden_schema')} "
            f"!= {STORE_SCHEMA_VERSION}/{GOLDEN_SCHEMA_VERSION}"
        )
    return "corrupt: checksum/key/payload mismatch"


class SessionStore:
    """Content-addressed on-disk cache of per-session metric vectors.

    One store instance is parent-side only: the sweep engine partitions
    its grid against the store *before* any work ships, runs only the
    misses, and writes their results back — workers never touch the
    store. Concurrent stores over the same root are safe: entries are
    immutable once written (same key ⇒ same bytes) and writes are
    atomic, so the worst race outcome is computing the same session
    twice.
    """

    def __init__(self, root: os.PathLike) -> None:
        self.root = Path(root)
        self._objects = self.root / "objects"
        self._objects.mkdir(parents=True, exist_ok=True)
        # Entry paths are formatted as strings: building a Path per read
        # cost more than the read itself on a warm re-run.
        self._objects_dir = str(self._objects)
        self._hits = 0
        self._misses = 0
        self._corrupt = 0
        self._puts = 0
        self._bytes_read = 0
        self._bytes_written = 0
        # Digest memos keyed by object identity with a pinned source
        # reference (the ArtifactCache idiom): a 400-session compare
        # hashes each video and trace once, not once per session.
        self._video_digests: Dict[int, Tuple[VideoAsset, str]] = {}
        self._trace_digests: Dict[int, Tuple[NetworkTrace, str]] = {}

    # -- key derivation -------------------------------------------------

    def _video_digest(self, video: VideoAsset) -> str:
        entry = self._video_digests.get(id(video))
        if entry is None or entry[0] is not video:
            entry = (video, video_digest(video))
            self._video_digests[id(video)] = entry
        return entry[1]

    def _trace_digest(self, trace: NetworkTrace) -> str:
        entry = self._trace_digests.get(id(trace))
        if entry is None or entry[0] is not trace:
            entry = (trace, trace.digest())
            self._trace_digests[id(trace)] = entry
        return entry[1]

    def keys_for(
        self,
        spec,
        video: VideoAsset,
        traces: Sequence[NetworkTrace],
        config: SessionConfig,
    ) -> List[str]:
        """Store keys for (spec, video, trace, config), one per trace.

        ``spec`` is duck-typed (``scheme`` / ``network`` /
        ``algorithm_factory`` / ``estimator_factory`` / ``fault_plan``
        attributes) so this module never imports the sweep engine.
        Raises :class:`UncacheableValueError` when a factory has no
        stable content identity.
        """
        return session_keys(
            spec.scheme,
            spec.network,
            spec.algorithm_factory,
            spec.estimator_factory,
            spec.fault_plan,
            self._video_digest(video),
            [self._trace_digest(trace) for trace in traces],
            config,
        )

    def key_for(
        self,
        spec,
        video: VideoAsset,
        trace: NetworkTrace,
        config: SessionConfig,
    ) -> str:
        """Store key for one session (see :meth:`keys_for`)."""
        (key,) = self.keys_for(spec, video, (trace,), config)
        return key

    # -- entry I/O ------------------------------------------------------

    def _entry_path(self, key: str) -> str:
        return f"{self._objects_dir}/{key[:2]}/{key}.json"

    def has(self, key: str) -> bool:
        """Whether an entry file exists under ``key`` — stats-neutral.

        A pure existence probe for coordination (the multi-host executor
        scans the whole grid for missing sessions on every lease pass):
        no read, no validation, and no hit/miss accounting, so polling
        never skews the store's counters. A defective entry still counts
        as present — it is surfaced (and charged) by :meth:`get` when
        the merge actually reads it.
        """
        return os.path.isfile(self._entry_path(key))

    def get(self, key: str) -> Optional[SessionMetrics]:
        """The cached metrics under ``key``, or None (miss / bad entry).

        A corrupted or stale entry — wrong header, checksum failure,
        truncation, a payload that is not a list of 15 values — is
        counted in :attr:`stats` ``.corrupt``, reported as a miss, and
        never returned as data.
        """
        try:
            raw = _read_bytes(self._entry_path(key))
        except OSError:
            self._misses += 1
            return None
        self._bytes_read += len(raw)
        values = _entry_values(raw, key)
        if values is None:
            self._corrupt += 1
            self._misses += 1
            return None
        self._hits += 1
        return SessionMetrics(*values)

    def put(self, key: str, metrics: SessionMetrics) -> None:
        """Persist one session result under ``key`` (atomic, immutable)."""
        payload = _COMPACT_JSON.encode(_metric_values(metrics)).encode("ascii")
        raw = b"".join((
            _HEADER_HEAD,
            key.encode("ascii"),
            _HEADER_CHECKSUM,
            _payload_checksum(payload),
            _HEADER_END,
            payload,
        ))
        path = self._entry_path(key)
        try:
            write_atomic(path, raw)
        except FileNotFoundError:
            # The first write into a shard creates its directory.
            os.makedirs(os.path.dirname(path), exist_ok=True)
            write_atomic(path, raw)
        self._puts += 1
        self._bytes_written += len(raw)

    # -- introspection / maintenance ------------------------------------

    @property
    def stats(self) -> StoreStats:
        """Counters accumulated by this store instance."""
        return StoreStats(
            hits=self._hits,
            misses=self._misses,
            corrupt=self._corrupt,
            puts=self._puts,
            bytes_read=self._bytes_read,
            bytes_written=self._bytes_written,
        )

    def _shard_files(self, pattern: str) -> Iterator[Path]:
        if not self._objects.is_dir():
            return
        for shard in sorted(self._objects.iterdir()):
            if not shard.is_dir():
                continue
            yield from sorted(shard.glob(pattern))

    def _temp_files(self) -> Iterator[Tuple[Path, float]]:
        """(path, mtime) of every temp file left by a write."""
        for path in self._shard_files(TEMP_GLOB):
            try:
                mtime = path.stat().st_mtime
            except OSError:
                continue
            yield path, mtime

    def describe(self) -> Dict[str, object]:
        """On-disk summary for ``repro cache stats``.

        ``temp_files`` counts temp files of writes that are in progress
        or were interrupted before their rename.
        """
        entries = 0
        total_bytes = 0
        oldest: Optional[float] = None
        newest: Optional[float] = None
        for path in self._shard_files("*.json"):
            try:
                info = path.stat()
            except OSError:
                continue
            entries += 1
            total_bytes += info.st_size
            oldest = info.st_mtime if oldest is None else min(oldest, info.st_mtime)
            newest = info.st_mtime if newest is None else max(newest, info.st_mtime)
        return {
            "root": str(self.root),
            "schema": STORE_SCHEMA_VERSION,
            "golden_schema": GOLDEN_SCHEMA_VERSION,
            "entries": entries,
            "bytes": total_bytes,
            "temp_files": sum(1 for _ in self._temp_files()),
            "oldest_mtime": oldest,
            "newest_mtime": newest,
            "session": dataclasses.asdict(self.stats),
        }

    def _entry_problems(self) -> List[EntryProblem]:
        """Every entry that :meth:`get` would read as a miss, and why."""
        problems: List[EntryProblem] = []
        for path in self._shard_files("*.json"):
            try:
                raw = _read_bytes(str(path))
            except OSError as exc:
                problems.append(EntryProblem(path, f"unreadable: {exc}"))
                continue
            if _entry_values(raw, path.stem) is None:
                problems.append(EntryProblem(path, _diagnose(raw)))
        return problems

    def verify(self) -> List[EntryProblem]:
        """Scan every entry; report the corrupted/stale ones and temp files.

        Entries get the same validation as :meth:`get` (header against
        the filename's key and both schema versions, checksum over the
        stored payload bytes, payload length), so anything reported here
        would have read as a miss, never as wrong data. Every temp file
        is reported as an ``orphan`` with its age; one younger than
        :data:`ORPHAN_TEMP_AGE_S` may still belong to a running write.
        """
        now = time.time()
        return self._entry_problems() + [
            EntryProblem(path, f"orphan: temp file of an unfinished write, "
                               f"{max(now - mtime, 0.0):.0f} s old")
            for path, mtime in self._temp_files()
        ]

    def gc(
        self,
        max_entries: Optional[int] = None,
        max_age_s: Optional[float] = None,
        remove_defective: bool = True,
        dry_run: bool = False,
    ) -> Dict[str, int]:
        """Prune the store; returns removal counts by reason.

        Removes (in order): defective entries (every entry :meth:`verify`
        reports, when ``remove_defective``), temp files older than
        :data:`ORPHAN_TEMP_AGE_S`, entries older than ``max_age_s``, then
        the oldest entries beyond ``max_entries``.

        With ``dry_run`` nothing is deleted: the returned counts report
        what a real run *would* remove under the same policy, so
        ``repro cache gc --dry-run`` can preview an eviction safely.
        """

        def remove(path: Path) -> bool:
            if dry_run:
                return True
            try:
                path.unlink()
                return True
            except OSError:
                return False

        # Entries removed as defective (or, in a dry run, that would be)
        # do not also count toward age/size eviction.
        defective = set()
        if remove_defective:
            for problem in self._entry_problems():
                if remove(problem.path):
                    defective.add(problem.path)
        removed_orphans = 0
        orphan_cutoff = time.time() - ORPHAN_TEMP_AGE_S
        for path, mtime in self._temp_files():
            if mtime < orphan_cutoff and remove(path):
                removed_orphans += 1
        survivors: List[Tuple[float, Path]] = []
        for path in self._shard_files("*.json"):
            if path in defective:
                continue
            try:
                survivors.append((path.stat().st_mtime, path))
            except OSError:
                continue
        survivors.sort()
        removed_old = 0
        if max_age_s is not None:
            cutoff = time.time() - max_age_s
            keep: List[Tuple[float, Path]] = []
            for mtime, path in survivors:
                if mtime < cutoff and remove(path):
                    removed_old += 1
                    continue
                keep.append((mtime, path))
            survivors = keep
        removed_excess = 0
        if max_entries is not None and len(survivors) > max_entries:
            for _mtime, path in survivors[: len(survivors) - max_entries]:
                if remove(path):
                    removed_excess += 1
        return {
            "defective": len(defective),
            "orphans": removed_orphans,
            "expired": removed_old,
            "evicted": removed_excess,
        }
