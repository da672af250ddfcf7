"""Content-addressed persistent artifact store: the disk tier of PlanCache.

The in-memory :class:`~repro.sweep.cache.PlanCache` makes repeated work free
*within* a process; this store makes it cheap *across* processes.  Every
pytest invocation, ``nongemm-bench`` CLI call, and CI job re-derives the same
lowered plans, memory profiles, and transform outputs from scratch — pure
Python-object work that is bit-identical run to run.  The store persists
those artifacts once and serves them to every later process.

Design:

* **Content-addressed.**  Every entry is keyed by content hashes — a graph's
  :meth:`~repro.ir.graph.Graph.content_hash`, a flow's
  :meth:`~repro.flows.base.DeploymentFlow.pipeline_signature`, the device
  mode — folded with :data:`STORE_SCHEMA_VERSION` and a fingerprint of the
  ``repro`` source tree.  A stale entry can therefore never be *served*
  incorrectly: any change to the code or the keyed inputs changes the key,
  and the orphaned entry simply ages out under the size cap.
* **Corruption-tolerant.**  Loads treat any unreadable entry (truncated
  pickle, garbage bytes, vanished file, key mismatch) as a miss: the value
  is recomputed and rewritten.  A broken store can slow a run down, never
  poison it.
* **Atomic.**  Writes go to a temp file in the store directory and are
  published with :func:`os.replace`, so concurrent processes sharing one
  store directory see only complete entries.
* **Size-capped.**  When the store grows past ``max_bytes`` the
  least-recently-used entries (by mtime; hits refresh it) are deleted.

Opt-out: set ``REPRO_CACHE_DIR`` to ``0``/``off``/empty to disable, or to a
path to relocate the store (default ``$XDG_CACHE_HOME/nongemm-repro``).
Programmatically, construct a :class:`~repro.sweep.cache.PlanCache` with
``store=None`` or assign ``PLAN_CACHE.store = None``.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from repro.flows.plan import ExecutionPlan
    from repro.ir.graph import Graph

#: Bump when the on-disk entry layout or the payload schema of any artifact
#: kind changes; old entries then miss (and age out) instead of failing to
#: decode.  Semantic changes to lowering/cost code are covered automatically
#: by the source-tree fingerprint folded into every key.  When bumping, also
#: update the hardcoded ``nongemm-artifact-store-v<N>-`` cache keys in
#: ``.github/workflows/ci.yml`` so CI stops shipping the dead store around.
#: v2: N-device refactor — plan keys encode a device mode (not a use_gpu
#: boolean), plan payloads carry a ``target`` kind, and the pre-seeded
#: ``PlanArrays`` gained a device-index column.
#: v3: serving simulator — a new batch-indexed ``"serving"`` artifact kind
#: (pickled :class:`~repro.serving.cost.BatchCost` per plan key + platform
#: signature); the bump retires any same-named entries an older layout
#: could have left behind.
#: v4: plan payloads drop the pickled ``"arrays"`` entry; loaders derive the
#: simulator arrays from the kernel columns instead.
STORE_SCHEMA_VERSION = 4

#: default size cap; override with REPRO_CACHE_MAX_MB.
DEFAULT_MAX_BYTES = 256 * 1024 * 1024

_DISABLED_VALUES = {"", "0", "off", "none", "disabled"}

_CODE_FINGERPRINT: str | None = None


def code_fingerprint() -> str:
    """Content hash of every ``repro`` source file, computed once per process.

    Folding this into store keys makes the disk tier self-invalidating: any
    edit anywhere in ``src/repro`` (cost model, lowering pass, model builder)
    changes every key, so entries computed by different code are unreachable.
    This is deliberately coarse — a cache miss costs a recompute, a stale hit
    would cost correctness.
    """
    global _CODE_FINGERPRINT
    if _CODE_FINGERPRINT is None:
        package_root = Path(__file__).resolve().parent.parent
        digest = hashlib.blake2b(digest_size=16)
        for path in sorted(package_root.rglob("*.py")):
            digest.update(str(path.relative_to(package_root)).encode())
            digest.update(b"\x00")
            digest.update(path.read_bytes())
            digest.update(b"\x01")
        _CODE_FINGERPRINT = digest.hexdigest()
    return _CODE_FINGERPRINT


_EXTERNAL_FILE_HASHES: dict[str, str] = {}
_EXTERNAL_FINGERPRINTS: dict[tuple, str] = {}


def external_fingerprint(*objects: object) -> str:
    """Content hash of the out-of-tree source files defining ``objects``.

    :func:`code_fingerprint` covers everything under ``src/repro``; flows,
    passes, transforms, and model builders registered by *user code*
    (examples, downstream projects) live outside it, and an edit to one must
    not reuse store entries computed by the old implementation.  This hashes
    the defining module file of every object whose module is not part of the
    ``repro`` package; in-tree objects contribute nothing, so the common
    case returns ``""`` and costs two memoized dict lookups.
    """
    import inspect

    types = tuple(obj if inspect.isroutine(obj) else type(obj) for obj in objects)
    cached = _EXTERNAL_FINGERPRINTS.get(types)
    if cached is not None:
        return cached
    package_root = str(Path(__file__).resolve().parent.parent)
    digest = hashlib.blake2b(digest_size=16)
    relevant = False
    for entry in types:
        try:
            source = inspect.getfile(entry)
        except (TypeError, OSError):
            # builtins / REPL-defined code: no file to pin, key on the name.
            digest.update(f"<nofile:{getattr(entry, '__qualname__', entry)!r}>".encode())
            relevant = True
            continue
        resolved = str(Path(source).resolve())
        if resolved.startswith(package_root + os.sep):
            continue
        try:
            stat = Path(resolved).stat()
            memo_key = f"{resolved}:{stat.st_mtime_ns}:{stat.st_size}"
        except OSError:
            memo_key = resolved
        file_hash = _EXTERNAL_FILE_HASHES.get(memo_key)
        if file_hash is None:
            try:
                file_hash = hashlib.blake2b(
                    Path(resolved).read_bytes(), digest_size=16
                ).hexdigest()
            except OSError:
                file_hash = "<unreadable>"
            _EXTERNAL_FILE_HASHES[memo_key] = file_hash
        digest.update(f"{resolved}={file_hash}".encode())
        relevant = True
    result = digest.hexdigest() if relevant else ""
    _EXTERNAL_FINGERPRINTS[types] = result
    return result


def default_cache_dir() -> Path | None:
    """Resolve ``REPRO_CACHE_DIR``; ``None`` means the store is disabled."""
    raw = os.environ.get("REPRO_CACHE_DIR")
    if raw is not None:
        if raw.strip().lower() in _DISABLED_VALUES:
            return None
        return Path(raw).expanduser()
    base = os.environ.get("XDG_CACHE_HOME")
    root = Path(base).expanduser() if base else Path.home() / ".cache"
    return root / "nongemm-repro"


def _env_max_bytes() -> int:
    raw = os.environ.get("REPRO_CACHE_MAX_MB")
    if not raw:
        return DEFAULT_MAX_BYTES
    try:
        return max(1, int(raw)) * 1024 * 1024
    except ValueError:
        return DEFAULT_MAX_BYTES


@dataclass
class StoreInfo:
    """Snapshot of the store's on-disk state (``nongemm-bench cache info``)."""

    directory: str
    schema_version: int
    fingerprint: str
    entries: int
    total_bytes: int
    max_bytes: int
    entries_by_kind: dict[str, int] = field(default_factory=dict)


class ArtifactStore:
    """A flat directory of pickled, content-addressed artifacts.

    One file per entry, named ``<kind>-<digest>.pkl`` where the digest folds
    the schema version, the source-tree fingerprint, and the caller's key
    tuple.  The pickled payload is ``(key, value)`` so a (vanishingly
    unlikely) digest collision or a hand-copied file reads as a miss rather
    than a wrong value.
    """

    def __init__(
        self,
        directory: str | os.PathLike,
        max_bytes: int | None = None,
        schema_version: int = STORE_SCHEMA_VERSION,
        fingerprint: str | None = None,
    ):
        self.directory = Path(directory)
        self.max_bytes = _env_max_bytes() if max_bytes is None else max_bytes
        self.schema_version = schema_version
        self._fingerprint = fingerprint
        self._approx_bytes: int | None = None

    @classmethod
    def from_env(cls) -> "ArtifactStore | None":
        """The store described by the environment, or None when disabled."""
        directory = default_cache_dir()
        if directory is None:
            return None
        return cls(directory)

    @property
    def fingerprint(self) -> str:
        if self._fingerprint is None:
            self._fingerprint = code_fingerprint()
        return self._fingerprint

    # -- keying ------------------------------------------------------------

    def _digest(self, key: tuple) -> str:
        digest = hashlib.blake2b(digest_size=16)
        digest.update(f"{self.schema_version}|{self.fingerprint}|{key!r}".encode())
        return digest.hexdigest()

    def _path(self, key: tuple) -> Path:
        return self.directory / f"{key[0]}-{self._digest(key)}.pkl"

    # -- load / save -------------------------------------------------------

    def get(self, key: tuple) -> object | None:
        """The stored value for ``key``, or None on miss *or any failure*.

        Unreadable entries are removed so they stop costing a read per run.
        """
        path = self._path(key)
        try:
            blob = path.read_bytes()
            stored_key, value = pickle.loads(blob)
            if stored_key != key:
                return None
        except FileNotFoundError:
            return None
        except Exception:
            # truncated write, garbage bytes, unpicklable class: recompute.
            try:
                path.unlink()
            except OSError:
                pass
            return None
        try:
            os.utime(path)  # refresh mtime: eviction is least-recently-used
        except OSError:
            pass
        return value

    def put(self, key: tuple, value: object) -> None:
        """Persist ``value`` under ``key`` atomically; failures are silent.

        The store is an accelerator: a full disk or read-only directory must
        never break the computation whose result it failed to keep.
        """
        try:
            blob = pickle.dumps((key, value), protocol=pickle.HIGHEST_PROTOCOL)
        except Exception:
            return
        if len(blob) > self.max_bytes:
            return
        path = self._path(key)
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            try:
                replaced = path.stat().st_size  # overwrite: reclaim old size
            except OSError:
                replaced = 0
            fd, tmp_name = tempfile.mkstemp(dir=self.directory, prefix=".tmp-")
            try:
                with os.fdopen(fd, "wb") as handle:
                    handle.write(blob)
                os.replace(tmp_name, path)
            except BaseException:
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass
                raise
        except OSError:
            return
        if self._approx_bytes is None:
            self._approx_bytes = self._scan_bytes()
        else:
            self._approx_bytes += len(blob) - replaced
        if self._approx_bytes > self.max_bytes:
            self._evict_to_cap()

    # -- maintenance -------------------------------------------------------

    def _entries(self) -> list[Path]:
        try:
            return [p for p in self.directory.iterdir() if p.suffix == ".pkl"]
        except OSError:
            return []

    def _scan_bytes(self) -> int:
        total = 0
        for path in self._entries():
            try:
                total += path.stat().st_size
            except OSError:
                pass
        return total

    def _purge_stale_tmp(self, max_age_s: float = 3600.0) -> None:
        """Drop temp files orphaned by killed writers (they never publish)."""
        import time

        cutoff = time.time() - max_age_s
        try:
            candidates = list(self.directory.glob(".tmp-*"))
        except OSError:
            return
        for path in candidates:
            try:
                if path.stat().st_mtime < cutoff:
                    path.unlink()
            except OSError:
                pass

    def _evict_to_cap(self) -> None:
        """Delete least-recently-used entries until 80% of the cap is free."""
        self._purge_stale_tmp()
        target = int(self.max_bytes * 0.8)
        stats = []
        for path in self._entries():
            try:
                stat = path.stat()
            except OSError:
                continue
            stats.append((stat.st_mtime, stat.st_size, path))
        stats.sort()
        total = sum(size for _, size, _ in stats)
        for _, size, path in stats:
            if total <= target:
                break
            try:
                path.unlink()
                total -= size
            except OSError:
                pass
        self._approx_bytes = total

    def clear(self) -> int:
        """Delete every entry (and any orphaned temp file); returns the count."""
        self._purge_stale_tmp(max_age_s=0.0)
        removed = 0
        for path in self._entries():
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        self._approx_bytes = 0
        return removed

    def info(self) -> StoreInfo:
        by_kind: dict[str, int] = {}
        total = 0
        count = 0
        for path in self._entries():
            kind = path.name.split("-", 1)[0]
            by_kind[kind] = by_kind.get(kind, 0) + 1
            count += 1
            try:
                total += path.stat().st_size
            except OSError:
                pass
        return StoreInfo(
            directory=str(self.directory),
            schema_version=self.schema_version,
            fingerprint=self.fingerprint,
            entries=count,
            total_bytes=total,
            max_bytes=self.max_bytes,
            entries_by_kind=dict(sorted(by_kind.items())),
        )


# -- plan payloads ---------------------------------------------------------
#
# Plans are persisted *without* their source graph: the store key already
# pins the graph's content hash, so the loader re-attaches whatever graph
# (or lazy GraphRef) the caller resolved — typically without ever building
# it.  The payload also carries the plan's memoized scalar derivatives
# (fusion rate, coverage count) so a warm-from-disk process skips those
# walks too.
#
# Kernels are the bulk of a plan — tens of thousands of NamedTuples whose
# generic unpickling dominates a warm-from-disk run.  They are therefore
# encoded *columnar* (numpy arrays for the numeric fields, a deduplicated
# vocabulary for the op-kind tuples) and decoded lazily.  The simulator
# arrays are not stored: writer and loader derive them from the columns
# (:func:`~repro.runtime.simulator.arrays_from_columns`), and the profiling
# hot path reads only them and the scalar derivatives, so a loaded plan
# usually never rebuilds a single PlannedKernel.

#: columnar values above this are ruled out (int64 overflow); such plans
#: fall back to pickling the kernel list directly.  The byte total is checked
#: too: :func:`~repro.runtime.simulator.arrays_from_columns` sums the two
#: byte columns in int64.
_INT64_SAFE = 2**62


def _encode_kernels(kernels: "list") -> dict | None:
    """Columnar encoding of a kernel list; None when it doesn't fit int64."""
    import numpy as np

    from repro.hardware.device import DeviceKind
    from repro.ir.dtype import DType
    from repro.ops.base import OpCategory

    categories = tuple(OpCategory)
    devices = tuple(DeviceKind)
    dtypes = tuple(DType)
    kind_vocab: dict[tuple, int] = {}
    names: list[str] = []
    kind_idx: list[int] = []
    flat_node_ids: list[int] = []
    offsets = [0]
    numeric: list[tuple] = []
    for k in kernels:
        if (
            k.cost.flops > _INT64_SAFE
            or k.cost.bytes_read > _INT64_SAFE
            or k.cost.bytes_written > _INT64_SAFE
            or k.cost.bytes_read + k.cost.bytes_written > _INT64_SAFE
            or k.transfer_bytes_in > _INT64_SAFE
            or k.transfer_bytes_out > _INT64_SAFE
        ):
            return None
        names.append(k.name)
        kind_idx.append(kind_vocab.setdefault(k.op_kinds, len(kind_vocab)))
        flat_node_ids.extend(k.node_ids)
        offsets.append(len(flat_node_ids))
        numeric.append(
            (
                categories.index(k.category),
                devices.index(k.device),
                dtypes.index(k.dtype),
                k.cost.flops,
                k.cost.bytes_read,
                k.cost.bytes_written,
                k.metadata_only,
                k.is_custom,
                k.launch_count,
                k.transfer_bytes_in,
                k.transfer_bytes_out,
            )
        )
    columns = tuple(zip(*numeric)) if numeric else ((),) * 11
    return {
        "names": names,
        "kind_vocab": list(kind_vocab),
        "kind_idx": np.array(kind_idx, dtype=np.int32),
        "node_ids": np.array(flat_node_ids, dtype=np.int64),
        "offsets": np.array(offsets, dtype=np.int64),
        "category": np.array(columns[0], dtype=np.int8),
        "device": np.array(columns[1], dtype=np.int8),
        "dtype": np.array(columns[2], dtype=np.int8),
        "flops": np.array(columns[3], dtype=np.int64),
        "bytes_read": np.array(columns[4], dtype=np.int64),
        "bytes_written": np.array(columns[5], dtype=np.int64),
        "metadata_only": np.array(columns[6], dtype=bool),
        "is_custom": np.array(columns[7], dtype=bool),
        "launch_count": np.array(columns[8], dtype=np.int32),
        "transfer_in": np.array(columns[9], dtype=np.int64),
        "transfer_out": np.array(columns[10], dtype=np.int64),
    }


class LazyKernelList:
    """A kernel list decoded from columnar payload columns on first access.

    Supports the cheap queries the profiling path needs (``len``, covered
    node count) without decoding; iteration, indexing, and comparison
    materialize the real :class:`~repro.flows.plan.PlannedKernel` list once.
    """

    __slots__ = ("_encoded", "_kernels")

    def __init__(self, encoded: dict):
        self._encoded = encoded
        self._kernels: list | None = None

    def covered_node_count(self) -> int:
        """Total graph nodes covered — ``sum(len(k.node_ids))`` undecoded."""
        if self._kernels is not None:
            return sum(len(k.node_ids) for k in self._kernels)
        return int(self._encoded["offsets"][-1])

    def materialize(self) -> list:
        if self._kernels is None:
            from repro.flows.plan import PlannedKernel
            from repro.hardware.device import DeviceKind
            from repro.ir.dtype import DType
            from repro.ops.base import OpCategory, OpCost

            e = self._encoded
            categories = tuple(OpCategory)
            devices = tuple(DeviceKind)
            dtypes = tuple(DType)
            kind_vocab = e["kind_vocab"]
            names = e["names"]
            kind_idx = e["kind_idx"].tolist()
            node_ids = e["node_ids"].tolist()
            offsets = e["offsets"].tolist()
            category = e["category"].tolist()
            device = e["device"].tolist()
            dtype = e["dtype"].tolist()
            flops = e["flops"].tolist()
            bytes_read = e["bytes_read"].tolist()
            bytes_written = e["bytes_written"].tolist()
            metadata_only = e["metadata_only"].tolist()
            is_custom = e["is_custom"].tolist()
            launch_count = e["launch_count"].tolist()
            transfer_in = e["transfer_in"].tolist()
            transfer_out = e["transfer_out"].tolist()
            self._kernels = [
                PlannedKernel(
                    names[i],
                    tuple(node_ids[offsets[i] : offsets[i + 1]]),
                    kind_vocab[kind_idx[i]],
                    categories[category[i]],
                    devices[device[i]],
                    OpCost(flops[i], bytes_read[i], bytes_written[i]),
                    dtypes[dtype[i]],
                    metadata_only[i],
                    is_custom[i],
                    launch_count[i],
                    transfer_in[i],
                    transfer_out[i],
                )
                for i in range(len(names))
            ]
        return self._kernels

    def __len__(self) -> int:
        return len(self._encoded["names"])

    def __iter__(self):
        return iter(self.materialize())

    def __getitem__(self, index):
        return self.materialize()[index]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, LazyKernelList):
            other = other.materialize()
        return self.materialize() == other

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "decoded" if self._kernels is not None else "encoded"
        return f"<LazyKernelList {len(self)} kernels ({state})>"


def plan_payload(plan: "ExecutionPlan") -> dict:
    """The persistable view of a lowered plan (everything but the graph).

    Encoding walks the kernels once; the plan's simulator arrays, when not
    yet cached, are seeded from the same columns instead of a second walk.
    """
    from repro.runtime.simulator import _PLAN_ARRAYS_ATTR, arrays_from_columns

    kernels = plan.kernels
    if isinstance(kernels, LazyKernelList):
        encoded, pickled = kernels._encoded, None
    else:
        encoded = _encode_kernels(kernels)
        pickled = None if encoded is not None else kernels
    if encoded is not None and getattr(plan, _PLAN_ARRAYS_ATTR, None) is None:
        setattr(plan, _PLAN_ARRAYS_ATTR, arrays_from_columns(encoded))
    return {
        "flow": plan.flow,
        "dispatch_profile": plan.dispatch_profile,
        "target": plan.target,
        "kernels_columnar": encoded,
        "kernels_pickled": pickled,
        "gemm_peak_scale_f32": plan.gemm_peak_scale_f32,
        "gemm_saturation_scale": plan.gemm_saturation_scale,
        "notes": plan.notes,
        # memoized derivatives: cheap to compute now (the lowering process
        # needs them moments later anyway), free for every later process.
        "fusion_rate": plan.non_gemm_fusion_rate(),
        "covered_nodes": plan.covered_node_count(),
    }


def plan_from_payload(payload: dict, graph: "Graph") -> "ExecutionPlan":
    """Rebuild an :class:`ExecutionPlan` around the caller's graph handle.

    ``graph`` may be a materialized :class:`~repro.ir.graph.Graph` or a lazy
    :class:`~repro.sweep.cache.GraphRef`; the pre-seeded derivatives, the
    simulator arrays derived from the kernel columns, and the lazily-decoded
    kernel list serve the whole profiling path, so neither the graph nor the
    kernels are built unless something walks them.
    """
    from repro.flows.plan import ExecutionPlan
    from repro.runtime.simulator import _PLAN_ARRAYS_ATTR, arrays_from_columns

    encoded = payload["kernels_columnar"]
    kernels = LazyKernelList(encoded) if encoded is not None else payload["kernels_pickled"]
    plan = ExecutionPlan(
        graph=graph,
        flow=payload["flow"],
        dispatch_profile=payload["dispatch_profile"],
        kernels=kernels,  # type: ignore[arg-type]
        target=payload["target"],
        gemm_peak_scale_f32=payload["gemm_peak_scale_f32"],
        gemm_saturation_scale=payload["gemm_saturation_scale"],
        notes=payload["notes"],
    )
    plan.__dict__["_non_gemm_fusion_rate"] = payload["fusion_rate"]
    plan.__dict__["_covered_node_count"] = payload["covered_nodes"]
    if encoded is not None:
        setattr(plan, _PLAN_ARRAYS_ATTR, arrays_from_columns(encoded))
    return plan


# -- transform payloads -----------------------------------------------------


@dataclass
class StoredTransformResult:
    """A transform result rebuilt from the store: stats plus a lazy graph.

    The transformed graph itself is *not* persisted — its content hash is a
    deterministic derivation of the parent's, which is all the plan and
    memory caches key on.  ``graph`` is a :class:`~repro.sweep.cache.GraphRef`
    that re-runs the transform only if something walks the structure.
    """

    graph: object
    stats: object


def transform_payload(result: object) -> dict:
    """Persistable view of a transform result (stats only when possible)."""
    if hasattr(result, "graph") and hasattr(result, "stats"):
        return {"stats": result.stats, "full": None}
    return {"stats": None, "full": result}
