"""Content-addressed persistent result cache (+ its CLI).

Every finished leaf job of the experiment scheduler lands here as one
object file named by the **sha256 of its full cache key** — source
fingerprint, job name, function spec, params, seed, Monte Carlo depth —
so the store is content-addressed: equal work maps to equal names on
any machine, which is what makes warm caches *portable*.  The named
netlists of :func:`repro.eval.experiments.cached_module` are entries of
the same store, addressed by source fingerprint and name.  Layout::

    <root>/
      objects/<sha256-hex>.pkl   # {"schema", "key" | "digest", "value"}

``objects/`` is the store's only state: an entry's size is its file
size and its last use is its file mtime.

Properties:

* **atomic writes** — objects are written to a temp file and
  ``os.replace``d; readers never observe a torn entry;
* **self-verifying** — an object must contain the exact key (or
  digest) that names it; a mismatch, torn pickle or unreadable file
  degrades to a miss and ticks ``<counters>.corrupt`` (never silent,
  the caller recomputes and overwrites);
* **size-capped** — ``max_mb`` (or ``REPRO_RESULT_CACHE_MB``) enforces
  an LRU budget at store time; :meth:`ResultCache.gc` does the same on
  demand, evicting least-recently-*used* entries (hits refresh mtime);
* **portable** — :meth:`ResultCache.export` packs the store into one
  ``tar.gz`` artifact and :meth:`ResultCache.import_archive` unpacks it
  into another root, re-verifying every digest on the way in.  A CI
  runner that imports a warm artifact replays the whole report with
  zero leaf executions.

CLI (also reachable as ``python -m repro cache ...``)::

    python -m repro.eval.cache stats  [--root PATH] [--json]
    python -m repro.eval.cache gc     --max-mb N [--root PATH]
    python -m repro.eval.cache export ARCHIVE [--root PATH]
    python -m repro.eval.cache import ARCHIVE [--root PATH]

``REPRO_RESULT_CACHE`` overrides the root; ``0`` disables the store,
and with it the on-disk half of the module cache.
"""

import argparse
import hashlib
import json
import os
import pickle
import sys
import tarfile
import tempfile
from pathlib import Path

from repro import obs
from repro.errors import ReproError

#: Store schema; bump on incompatible layout changes.
SCHEMA = "repro.cache/1"

_OBJECTS = "objects"


def _default_cache_root():
    env = os.environ.get("REPRO_RESULT_CACHE")
    if env == "0":
        return None
    if env:
        return Path(env)
    return Path(__file__).resolve().parents[3] / ".cache" / "results"


def _megabytes(text):
    """``text`` as a finite, non-negative number of megabytes, or
    ``None`` when it is not one."""
    try:
        megabytes = float(text)
    except ValueError:
        return None
    return megabytes if 0 <= megabytes < float("inf") else None


def _default_max_bytes():
    env = os.environ.get("REPRO_RESULT_CACHE_MB", "").strip()
    if not env:
        return None
    megabytes = _megabytes(env)
    if megabytes is None:
        raise ReproError(
            f"REPRO_RESULT_CACHE_MB={env!r} is not a non-negative number "
            f"of megabytes")
    return int(megabytes * 1024 * 1024)


def _max_mb_arg(text):
    """``--max-mb`` type: a negative budget is a usage error (exit 2),
    not an emptied store."""
    megabytes = _megabytes(text)
    if megabytes is None:
        raise argparse.ArgumentTypeError(
            f"must be a non-negative number of megabytes, got {text!r}")
    return megabytes


def job_key(fingerprint, jb):
    """The full, collision-safe cache key string of one job."""
    params = dict(jb.params)
    return repr((fingerprint, jb.name, str(jb.fn), jb.params,
                 params.get("seed"), params.get("n_cycles")))


def key_digest(key):
    """The content address of a key: its full sha256 hex digest."""
    return hashlib.sha256(key.encode()).hexdigest()


def _proves(entry, digest):
    """Whether a loaded entry proves it belongs under ``digest``.

    Two self-verifying entry forms share the store: keyed entries
    written locally (``{"key": <full key>}``) and digest entries
    (``{"digest": <hex>}``) stored by a worker daemon, which only ever
    sees the content address, and by ``cached_module``.
    """
    return isinstance(entry, dict) and (
        (isinstance(entry.get("key"), str)
         and key_digest(entry["key"]) == digest)
        or entry.get("digest") == digest)


def _atomic_write(path, data):
    """Write ``data`` via a temp file and ``os.replace``: readers never
    observe a torn file."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    with os.fdopen(fd, "wb") as fh:
        fh.write(data)
    os.replace(tmp, path)


class ResultCache:
    """On-disk content-addressed cache of finished experiment results."""

    #: Registry prefix of the hit/miss/corrupt counters this store's
    #: reads tick.
    counters = "orchestrator.cache"

    def __init__(self, root=None, fingerprint=None, max_mb=None):
        if root is None:
            root = _default_cache_root()
        self.root = Path(root) if root is not None else None
        if fingerprint is None:
            from repro.eval.experiments import source_fingerprint

            fingerprint = source_fingerprint()
        self.fingerprint = fingerprint
        self.max_bytes = (int(max_mb * 1024 * 1024)
                          if max_mb is not None else _default_max_bytes())
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------------
    # layout helpers
    # ------------------------------------------------------------------

    def _object_path(self, digest):
        return self.root / _OBJECTS / f"{digest}.pkl"

    def _entries(self):
        """``{digest: (mtime, bytes)}`` of every object in the store."""
        entries = {}
        obj_dir = self.root / _OBJECTS
        if not obj_dir.is_dir():
            return entries
        for path in obj_dir.iterdir():
            if not path.name.endswith(".pkl"):
                continue
            try:
                stat = path.stat()
            except OSError:
                continue                     # evicted under our feet
            entries[path.name[:-4]] = (stat.st_mtime, stat.st_size)
        return entries

    # ------------------------------------------------------------------
    # the one verified read and the one atomic write
    # ------------------------------------------------------------------

    def _read(self, digest):
        """``(hit, value)`` of the object named ``digest``, verified.

        A torn pickle or an entry that does not :func:`_proves` its
        name is corrupt, not merely cold: it ticks
        ``<counters>.corrupt`` and is deleted to clear the way for the
        recompute's overwrite.  Hits refresh the object's mtime, its
        LRU position.
        """
        path = self._object_path(digest)
        try:
            with open(path, "rb") as fh:
                entry = pickle.load(fh)
        except FileNotFoundError:
            return False, None
        except Exception:
            entry = None
        if not _proves(entry, digest):
            obs.registry().inc(f"{self.counters}.corrupt")
            try:
                os.unlink(path)
            except OSError:
                pass
            return False, None
        try:
            os.utime(path)
        except OSError:
            pass                             # a read-only store still hits
        return True, entry["value"]

    def _write(self, digest, entry):
        """Best-effort atomic store; enforces the LRU size budget."""
        try:
            _atomic_write(self._object_path(digest), pickle.dumps(
                entry, protocol=pickle.HIGHEST_PROTOCOL))
        except Exception:
            return
        if self.max_bytes is not None:
            self._evict(self.max_bytes, keep=digest)

    # ------------------------------------------------------------------
    # keyed access (the scheduler)
    # ------------------------------------------------------------------

    def load(self, jb):
        """Return ``(hit, value)``; any failure is a miss, never an error."""
        if self.root is None:
            return False, None
        digest = key_digest(job_key(self.fingerprint, jb))
        with obs.span(f"cache:probe:{jb.name}", cat="cache") as note:
            hit, value = self._read(digest)
            note["hit"] = hit
        if hit:
            self.hits += 1
            obs.registry().inc(f"{self.counters}.hits")
        else:
            self.misses += 1
            obs.registry().inc(f"{self.counters}.misses")
        return hit, value

    def store(self, jb, value):
        """Best-effort atomic write; enforces the LRU size budget."""
        if self.root is None:
            return
        key = job_key(self.fingerprint, jb)
        self._write(key_digest(key),
                    {"schema": SCHEMA, "key": key, "value": value})

    # ------------------------------------------------------------------
    # digest-addressed access (remote cache sync, named modules)
    # ------------------------------------------------------------------

    def has_object(self, digest):
        """Whether the store holds an object under ``digest``."""
        return self.root is not None and self._object_path(digest).is_file()

    def load_object(self, digest):
        """``(hit, value)`` straight by content address.

        The remote coordinator pulls warm results this way — it knows
        the digest from the leaf fingerprint, not the daemon's key — and
        :func:`repro.eval.experiments.cached_module` loads its netlists.
        """
        if self.root is None:
            return False, None
        return self._read(digest)

    def store_object(self, digest, value):
        """Best-effort store of one object under a bare content address.

        The daemon-side half of cache sync: a worker daemon never sees
        the full cache key (the wire carries only the fingerprint), so
        its entries record the digest as their self-verification proof.
        Named module entries are stored the same way.
        """
        if self.root is None:
            return
        self._write(digest,
                    {"schema": SCHEMA, "digest": digest, "value": value})

    # ------------------------------------------------------------------
    # maintenance: stats / gc
    # ------------------------------------------------------------------

    def stats(self):
        """Entry count, total bytes and the store location."""
        if self.root is None:
            return {"root": None, "entries": 0, "bytes": 0}
        entries = self._entries()
        return {"root": str(self.root), "entries": len(entries),
                "bytes": sum(size for __, size in entries.values()),
                "max_bytes": self.max_bytes}

    def _evict(self, max_bytes, keep=None):
        entries = self._entries()
        total = sum(size for __, size in entries.values())
        evicted = []
        for digest in sorted(entries, key=entries.get):
            if total <= max_bytes:
                break
            if digest == keep:
                continue
            size = entries[digest][1]
            total -= size
            evicted.append({"digest": digest, "bytes": size})
            try:
                os.unlink(self._object_path(digest))
            except OSError:
                pass
            obs.registry().inc("orchestrator.cache.evicted")
        return evicted

    def gc(self, max_mb):
        """Evict least-recently-used entries down to ``max_mb``."""
        if self.root is None:
            return []
        return self._evict(int(max_mb * 1024 * 1024))

    # ------------------------------------------------------------------
    # portability: export / import
    # ------------------------------------------------------------------

    def export(self, archive_path):
        """Pack the whole store into one ``tar.gz`` artifact."""
        if self.root is None:
            raise ValueError("result cache is disabled; nothing to export")
        entries = self._entries()
        archive_path = Path(archive_path)
        archive_path.parent.mkdir(parents=True, exist_ok=True)
        with tarfile.open(archive_path, "w:gz") as tar:
            for digest in sorted(entries):
                path = self._object_path(digest)
                if path.is_file():
                    tar.add(path, arcname=f"{_OBJECTS}/{digest}.pkl")
        return {"archive": str(archive_path), "entries": len(entries)}

    def import_archive(self, archive_path):
        """Unpack an exported store, re-verifying every content address.

        Objects whose stored key does not hash to their file name are
        rejected (and counted under ``orchestrator.cache.corrupt``);
        already-present digests are skipped, and so is any member
        outside ``objects/`` (the ``index.json`` older archives carry).
        """
        if self.root is None:
            raise ValueError("result cache is disabled; nowhere to import")
        imported = skipped = corrupt = 0
        with tarfile.open(archive_path, "r:gz") as tar:
            for member in tar.getmembers():
                if not member.isfile() \
                        or not member.name.startswith(f"{_OBJECTS}/") \
                        or not member.name.endswith(".pkl"):
                    continue
                digest = member.name[len(_OBJECTS) + 1:-4]
                if len(digest) != 64 or not all(
                        c in "0123456789abcdef" for c in digest):
                    corrupt += 1
                    continue
                if self._object_path(digest).is_file():
                    skipped += 1
                    continue
                blob = tar.extractfile(member).read()
                try:
                    entry = pickle.loads(blob)
                except Exception:
                    entry = None
                if not _proves(entry, digest) \
                        or entry.get("schema") != SCHEMA:
                    corrupt += 1
                    obs.registry().inc("orchestrator.cache.corrupt")
                    continue
                _atomic_write(self._object_path(digest), blob)
                imported += 1
        return {"imported": imported, "skipped": skipped,
                "corrupt": corrupt}


def resolve_cache(cache):
    """Normalize the ``cache`` argument of the scheduler entry points.

    ``True`` -> the default on-disk cache (or ``None`` when disabled by
    ``REPRO_RESULT_CACHE=0``), ``False``/``None`` -> no caching, a
    :class:`ResultCache` instance -> itself.
    """
    if cache is True:
        return ResultCache() if _default_cache_root() is not None else None
    if cache in (False, None):
        return None
    return cache


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------

def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m repro.eval.cache",
        description="Inspect, bound and ship the content-addressed "
                    "experiment result cache.")
    parser.add_argument("--root", default=None,
                        help="cache directory (default: the scheduler's "
                             "store, honouring REPRO_RESULT_CACHE)")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("stats", help="entry count and size") \
        .add_argument("--json", action="store_true")
    gc_p = sub.add_parser("gc", help="evict LRU entries over a budget")
    gc_p.add_argument("--max-mb", type=_max_mb_arg, required=True,
                      help="size budget to shrink the store to")
    exp_p = sub.add_parser("export",
                           help="pack the store into a tar.gz artifact")
    exp_p.add_argument("archive", help="output archive path")
    imp_p = sub.add_parser("import",
                           help="unpack an exported store (digest-"
                                "verified; existing entries skipped)")
    imp_p.add_argument("archive", help="input archive path")
    args = parser.parse_args(argv)

    root = args.root or _default_cache_root()
    if root is None:
        print("result cache is disabled (REPRO_RESULT_CACHE=0)",
              file=sys.stderr)
        return 2
    # Maintenance commands never need the source fingerprint (which
    # would import the whole experiment stack): pass a placeholder.
    cache = ResultCache(root=root, fingerprint="(cli)")

    if args.command == "stats":
        stats = cache.stats()
        if args.json:
            print(json.dumps(stats, indent=2, sort_keys=True))
        else:
            print(f"{stats['root']}: {stats['entries']} entries, "
                  f"{stats['bytes'] / 1e6:.2f} MB"
                  + (f" (budget {stats['max_bytes'] / 1e6:.0f} MB)"
                     if stats.get("max_bytes") else ""))
        return 0
    if args.command == "gc":
        evicted = cache.gc(args.max_mb)
        freed = sum(e["bytes"] for e in evicted)
        print(f"evicted {len(evicted)} entries, freed "
              f"{freed / 1e6:.2f} MB")
        return 0
    if args.command == "export":
        info = cache.export(args.archive)
        print(f"exported {info['entries']} entries to {info['archive']}")
        return 0
    if args.command == "import":
        info = cache.import_archive(args.archive)
        print(f"imported {info['imported']} entries "
              f"({info['skipped']} already present, "
              f"{info['corrupt']} rejected)")
        return 0
    return 2                                 # pragma: no cover


if __name__ == "__main__":
    sys.exit(main())
