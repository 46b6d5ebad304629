"""Multi-host lease protocol + sweep manifests over a shared store.

Workers on N machines cooperate on one sweep with no coordinator and no
network protocol beyond a shared filesystem (the content-addressed
store directory, typically on NFS or a shared volume):

- **Work breakdown.** Every participant derives the *same* canonical
  unit catalogue from the grid (see
  :meth:`~repro.experiments.scheduler.SweepScheduler.plan_grid_units`),
  so unit names line up across hosts without any message exchange.
- **Claims.** A worker claims a unit by creating
  ``<store>/leases/<sweep_id>/<unit>.lease`` with ``O_CREAT | O_EXCL``
  — atomic on POSIX filesystems, so exactly one claimant wins. The
  file's JSON body names the owner; its mtime is the heartbeat.
- **Heartbeats.** The owner refreshes the lease mtime between
  sub-batches. A lease whose age exceeds the TTL is *stale*: its owner
  is presumed dead.
- **Reclaim, exactly once.** A stale lease is reclaimed by atomically
  renaming it to its tombstone name (``<unit>.stale``): however many
  workers race, ``os.replace`` succeeds for exactly one of them (the
  rest see the source file already gone), so the unit's range is
  re-issued exactly once. The winner removes the tombstone and the unit
  becomes claimable again.
- **Benign duplicate compute.** Even if a presumed-dead owner is merely
  slow and finishes after its lease was reclaimed, nothing corrupts:
  store entries are immutable and content-addressed (same key ⇒ same
  bytes), so two workers writing the same session is wasted work, never
  wrong data.

The **sweep manifest** rides the same directory: the initiating process
writes ``<store>/sweeps/<sweep_id>.json`` — a seeded
:class:`SweepRecipe` from which ``repro sweep-worker`` rebuilds the
identical grid (videos, traces, schemes, faults are all pure functions
of the recipe's seeds) — so joining a sweep from another terminal or
host needs only the store path.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import socket
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.util.atomic import write_atomic

__all__ = [
    "DEFAULT_LEASE_TTL_S",
    "LEASE_SUFFIX",
    "LeaseInfo",
    "LeaseBoard",
    "SweepRecipe",
    "recipe_sweep_id",
    "manifest_path",
    "write_manifest",
    "read_manifest",
    "list_sweeps",
    "latest_sweep_id",
]

#: Default lease time-to-live. A worker heartbeats its lease between
#: sub-batches, so a healthy owner's lease age stays well under this;
#: one whose age exceeds it is presumed dead and reclaimed.
DEFAULT_LEASE_TTL_S = 60.0

LEASE_SUFFIX = ".lease"
_TOMBSTONE_SUFFIX = ".stale"


@dataclasses.dataclass(frozen=True)
class LeaseInfo:
    """One live lease, as seen by ``repro cache leases``."""

    unit: str
    owner: str
    age_s: float
    ttl_s: float

    @property
    def stale(self) -> bool:
        return self.age_s > self.ttl_s


class LeaseBoard:
    """Atomic lease files for one sweep under a shared store directory.

    All methods tolerate concurrent boards over the same directory —
    that is the whole point. None of them raise on the ordinary races
    (two claims, two reclaims, release after reclaim); the filesystem's
    atomic create/rename primitives pick the single winner.
    """

    def __init__(
        self,
        store_root: os.PathLike,
        sweep_id: str,
        owner: Optional[str] = None,
        ttl_s: float = DEFAULT_LEASE_TTL_S,
    ) -> None:
        if ttl_s <= 0:
            raise ValueError(f"ttl_s must be positive, got {ttl_s}")
        self.sweep_id = sweep_id
        self.ttl_s = ttl_s
        self.owner = owner or f"{socket.gethostname()}:{os.getpid()}"
        self.dir = Path(store_root) / "leases" / sweep_id
        self.dir.mkdir(parents=True, exist_ok=True)

    def _path(self, unit: str) -> Path:
        return self.dir / f"{unit}{LEASE_SUFFIX}"

    # -- the protocol ---------------------------------------------------

    def claim(self, unit: str) -> bool:
        """Try to claim one unit; True iff this board won the lease.

        ``O_CREAT | O_EXCL`` makes the claim atomic: with any number of
        racing workers exactly one open succeeds.
        """
        body = json.dumps(
            {"owner": self.owner, "claimed_at": time.time()},
            separators=(",", ":"),
        ).encode("utf-8")
        try:
            fd = os.open(self._path(unit), os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return False
        try:
            os.write(fd, body)
        finally:
            os.close(fd)
        return True

    def heartbeat(self, unit: str) -> None:
        """Refresh the lease mtime; a reclaimed lease is silently gone."""
        try:
            os.utime(self._path(unit))
        except FileNotFoundError:
            pass

    def release(self, unit: str) -> None:
        """Drop a lease after finishing (or abandoning) its unit."""
        try:
            self._path(unit).unlink()
        except FileNotFoundError:
            pass

    def reclaim_stale(self) -> List[str]:
        """Expire every stale lease; returns the reclaimed unit names.

        Exactly-once semantics per expiry: the stale lease is atomically
        renamed to its tombstone, so of any number of concurrent
        reclaimers precisely one wins each lease (the others lose the
        rename and report nothing). Reclaimed units are immediately
        claimable again.
        """
        reclaimed: List[str] = []
        now = time.time()
        for path in sorted(self.dir.glob(f"*{LEASE_SUFFIX}")):
            try:
                age = now - path.stat().st_mtime
            except OSError:
                continue
            if age <= self.ttl_s:
                continue
            tombstone = path.with_suffix(_TOMBSTONE_SUFFIX)
            try:
                os.replace(path, tombstone)
            except FileNotFoundError:
                continue  # another reclaimer won this lease
            try:
                tombstone.unlink()
            except FileNotFoundError:
                pass
            reclaimed.append(path.name[: -len(LEASE_SUFFIX)])
        return reclaimed

    # -- inspection -----------------------------------------------------

    def list_leases(self) -> List[LeaseInfo]:
        """Every live lease on this board, sorted by unit name."""
        leases: List[LeaseInfo] = []
        now = time.time()
        for path in sorted(self.dir.glob(f"*{LEASE_SUFFIX}")):
            try:
                raw = path.read_bytes()
                age = now - path.stat().st_mtime
            except OSError:
                continue
            try:
                owner = str(json.loads(raw.decode("utf-8")).get("owner", "?"))
            except (ValueError, UnicodeDecodeError):
                owner = "?"
            leases.append(
                LeaseInfo(
                    unit=path.name[: -len(LEASE_SUFFIX)],
                    owner=owner,
                    age_s=age,
                    ttl_s=self.ttl_s,
                )
            )
        return leases


# ----------------------------------------------------------------------
# Sweep manifests (the `repro sweep-worker` join handshake)
# ----------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class SweepRecipe:
    """A seeded, self-contained description of one comparison grid.

    Everything a joining worker needs to rebuild the exact grid: videos
    and traces are synthesized from their seeds, schemes resolve through
    the registry, faults parse from their CLI spec string. The recipe
    deliberately covers only registry-named grids (no ad-hoc factories)
    because a manifest must be serializable and host-independent.
    """

    schemes: Tuple[str, ...]
    videos: Tuple[str, ...]
    network: str = "lte"
    traces: int = 20
    seed: int = 0
    faults: Optional[str] = None

    def to_dict(self) -> Dict[str, object]:
        return {
            "schemes": list(self.schemes),
            "videos": list(self.videos),
            "network": self.network,
            "traces": self.traces,
            "seed": self.seed,
            "faults": self.faults,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "SweepRecipe":
        return cls(
            schemes=tuple(payload["schemes"]),
            videos=tuple(payload["videos"]),
            network=str(payload.get("network", "lte")),
            traces=int(payload.get("traces", 20)),
            seed=int(payload.get("seed", 0)),
            faults=payload.get("faults"),
        )


def recipe_sweep_id(recipe: SweepRecipe) -> str:
    """Deterministic sweep identity from a recipe's canonical JSON.

    Every process that holds the same recipe — the initiator and each
    joining ``repro sweep-worker`` — derives the same id, hence the same
    lease directory, with no store reads at all.
    """
    canonical = json.dumps(recipe.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.blake2b(canonical.encode("utf-8"), digest_size=12).hexdigest()


def manifest_path(store_root: os.PathLike, sweep_id: str) -> Path:
    return Path(store_root) / "sweeps" / f"{sweep_id}.json"


def write_manifest(
    store_root: os.PathLike, sweep_id: str, recipe: SweepRecipe
) -> Path:
    """Persist a sweep manifest (atomic; rewriting the same id is benign)."""
    path = manifest_path(store_root, sweep_id)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {"sweep_id": sweep_id, "recipe": recipe.to_dict()}
    raw = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    write_atomic(str(path), raw.encode("utf-8"))
    return path


def read_manifest(store_root: os.PathLike, sweep_id: str) -> SweepRecipe:
    """Load one sweep's recipe; raises FileNotFoundError when absent."""
    payload = json.loads(manifest_path(store_root, sweep_id).read_text())
    return SweepRecipe.from_dict(payload["recipe"])


def list_sweeps(store_root: os.PathLike) -> List[Tuple[str, float]]:
    """(sweep_id, manifest mtime) pairs, newest first."""
    sweeps_dir = Path(store_root) / "sweeps"
    if not sweeps_dir.is_dir():
        return []
    out: List[Tuple[str, float]] = []
    for path in sweeps_dir.glob("*.json"):
        try:
            out.append((path.stem, path.stat().st_mtime))
        except OSError:
            continue
    out.sort(key=lambda item: (-item[1], item[0]))
    return out


def latest_sweep_id(store_root: os.PathLike) -> Optional[str]:
    """The most recently written sweep manifest's id, if any."""
    sweeps = list_sweeps(store_root)
    return sweeps[0][0] if sweeps else None
