"""Write-ahead journal of completed campaign cells (crash-safe resume).

One JSONL file next to the disk cache: every time :func:`repro.harness.
parallel.run_specs` finishes a spec (a sweep point, a torture cell, a
fault-trial chunk), the record is appended — pickled, base64-wrapped,
sha256-guarded — and fsync'd *before* the sweep moves on. A process
killed mid-campaign (worker SIGKILL, OOM, Ctrl-C) therefore leaves a
journal holding exactly the completed prefix; re-running with
``resume=True`` (CLI ``--resume``) replays those records without
re-executing and only runs what is missing. Because every engine is
deterministic, the resumed report is byte-identical to an undisturbed
run (the CI chaos-smoke job enforces this).

Layout per line (torn trailing lines from a crash are skipped, the
diskcache "corruption is a miss" discipline)::

    {"schema": 1, "key": <spec content hash>, "sha": <record sha256>,
     "record": <base64(pickle(record))>}

Keys are :func:`spec_key` content hashes over the spec's full identity
(dataclass fields + class name + the workload's program bytes + code
version and cache schema via :func:`repro.harness.diskcache.key_for`),
so a journal can never satisfy a spec from a different campaign, seed,
scale, program or commit. See docs/RESILIENCE.md.
"""

import base64
import dataclasses
import hashlib
import json
import os
import pickle
from pathlib import Path

from repro.harness import diskcache
from repro.obs import telemetry

JOURNAL_SCHEMA = 1

#: default directory for auto-named journals (CLI ``--journal`` with
#: no path); override with REPRO_JOURNAL_DIR
DEFAULT_DIR = ".repro_journal"


def spec_key(spec):
    """Content hash naming one spec — the one run key of both cache
    tiers, the journal and the run service. A spec's
    ``program_digest()`` folds in its program bytes."""
    if dataclasses.is_dataclass(spec) and not isinstance(spec, type):
        ident = dataclasses.asdict(spec)
    else:
        ident = repr(spec)
    parts = [type(spec).__name__, ident]
    digest = getattr(spec, "program_digest", None)
    if digest is not None:
        parts.append(digest())
    return diskcache.key_for(parts)


def journal_dir():
    return os.environ.get("REPRO_JOURNAL_DIR", DEFAULT_DIR)


def resolve_path(journal, specs):
    """Map the ``journal`` argument to a concrete path.

    ``True``/``"auto"`` derive a campaign-content-addressed filename
    (hash over every spec key) under :func:`journal_dir`, so the same
    campaign resumes the same journal and a different campaign can
    never collide with it; anything else is taken as an explicit path.
    """
    if journal in (True, "auto"):
        digest = hashlib.sha256(
            "\n".join(spec_key(s) for s in specs).encode()).hexdigest()
        return Path(journal_dir()) / f"run-{digest[:16]}.jsonl"
    return Path(journal)


class RunJournal:
    """Append-only journal of (spec key -> pickled record)."""

    def __init__(self, path):
        self.path = Path(path)
        self._handle = None
        self.appends = 0
        self.skipped_lines = 0

    # ------------------------------------------------------------- read

    def load(self):
        """{key: record} of every intact line (damage is skipped)."""
        done = {}
        try:
            lines = self.path.read_text().splitlines()
        except OSError:
            return done
        for line in lines:
            entry = self._decode(line)
            if entry is None:
                self.skipped_lines += 1
                continue
            done[entry[0]] = entry[1]
        telemetry.emit("journal_load", path=str(self.path),
                       entries=len(done), skipped=self.skipped_lines)
        return done

    def _decode(self, line):
        try:
            doc = json.loads(line)
            if doc.get("schema") != JOURNAL_SCHEMA:
                return None
            blob = base64.b64decode(doc["record"])
            if hashlib.sha256(blob).hexdigest() != doc["sha"]:
                return None
            return doc["key"], pickle.loads(blob)
        except Exception:
            return None

    # ------------------------------------------------------------ write

    def open(self):
        """Open for appending (parents created); idempotent."""
        if self._handle is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = open(self.path, "a")
        return self

    def append(self, key, record):
        """Durably journal one completed record (flush + fsync before
        returning, so a crash after this call can never lose it).
        Append failures degrade to no journal, never to a failed run —
        and that covers *encoding*: an unpicklable record (before
        ISSUE 10, ``pickle.dumps`` sat outside the try) is skipped
        with a ``journal_skip`` telemetry event, not raised through
        the campaign."""
        try:
            if self._handle is None:
                self.open()
            blob = pickle.dumps(record,
                                protocol=pickle.HIGHEST_PROTOCOL)
        except Exception as exc:
            # pickling raises PicklingError but also TypeError,
            # AttributeError, RecursionError... — and open() can be
            # refused by the filesystem; all of it degrades
            telemetry.emit("journal_skip", path=str(self.path),
                           key=key,
                           error=f"{type(exc).__name__}: {exc}")
            return False
        line = json.dumps({
            "schema": JOURNAL_SCHEMA, "key": key,
            "sha": hashlib.sha256(blob).hexdigest(),
            "record": base64.b64encode(blob).decode(),
        })
        try:
            self._handle.write(line + "\n")
            self._handle.flush()
            os.fsync(self._handle.fileno())
        except (OSError, ValueError) as exc:
            telemetry.emit("journal_skip", path=str(self.path),
                           key=key,
                           error=f"{type(exc).__name__}: {exc}")
            return False
        self.appends += 1
        return True

    def close(self):
        """Flush and close (the signal-handler drain path)."""
        handle, self._handle = self._handle, None
        if handle is None:
            return
        try:
            handle.flush()
            os.fsync(handle.fileno())
        except (OSError, ValueError):
            pass
        try:
            handle.close()
        except OSError:
            pass
