"""Chunk-level checkpoint journal for resumable sweeps.

A long sweep is a sequence of independent execution units — one
(structural point, row-chunk) each — so fault tolerance reduces to
journaling every finished unit's results on disk and skipping the
journaled ones on the next run.  The journal lives under

    <checkpoint_dir>/<key>/units/<si>-<start>-<stop>.pkl

where ``key`` is a canonical hash of everything that determines a
unit's results: the grid's axes (names, structural flags, value
content), the runner's stimulus / build / measure callables, the chunk
size (it defines the unit boundaries), and the failure policy
(NaN guard, ``on_error``, ``max_attempts``, ``timeout`` — quarantine
decisions are journaled, so they are only reusable under the policy
that made them).  Two
runners with the same fingerprint share a journal; anything else lands
in its own subdirectory, so a stale ``checkpoint_dir`` can never leak
wrong results into a different sweep.  Results are pickled, and a
pickle round-trip of floats and ndarrays is exact — a resumed sweep is
bit-identical to an uninterrupted one.

Callable fingerprints are best-effort: module-qualified name plus (when
available) a bytecode hash, default arguments, and cleaned ``repr``s of
closure cells — enough to catch the common "edited the measure
function" footgun.  Opaque callables fall back to their cleaned
``repr`` (memory addresses stripped so the fingerprint is stable
across processes); when in doubt, point the sweep at a fresh
``checkpoint_dir``.

Unit files are written atomically (temp file + ``os.replace``), so a
sweep killed mid-write leaves at worst one corrupt temp file; corrupt
or truncated unit files are treated as missing and re-run.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pathlib
import pickle
import re
from typing import Any, Dict, List, Optional, Sequence

__all__ = ["CheckpointJournal", "describe_callable", "describe_grid"]

_ADDRESS = re.compile(r"0x[0-9a-fA-F]+")


def _clean_repr(obj) -> str:
    """A ``repr`` with memory addresses stripped (stable across runs)."""
    try:
        text = repr(obj)
    except Exception:
        text = f"<unreprable {type(obj).__qualname__}>"
    return _ADDRESS.sub("0x", text)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _cell_repr(cell) -> str:
    try:
        return _clean_repr(cell.cell_contents)
    except ValueError:  # yet-unbound cell, e.g. a recursive inner fn
        return "<empty cell>"


def describe_callable(fn) -> str:
    """A stable, content-sensitive fingerprint of a callable."""
    if fn is None:
        return "None"
    import functools
    if isinstance(fn, functools.partial):
        keywords = sorted((fn.keywords or {}).items())
        return (f"partial({describe_callable(fn.func)}, "
                f"args={_clean_repr(fn.args)}, kw={_clean_repr(keywords)})")
    parts = [
        f"{getattr(fn, '__module__', '?')}."
        f"{getattr(fn, '__qualname__', type(fn).__qualname__)}"
    ]
    code = getattr(fn, "__code__", None)
    if code is not None:
        parts.append("code:" + _sha(code.co_code.hex()
                                    + _clean_repr(code.co_consts))[:16])
    defaults = getattr(fn, "__defaults__", None)
    if defaults:
        parts.append("defaults:" + _clean_repr(defaults))
    closure = getattr(fn, "__closure__", None)
    if closure:
        cells = [_cell_repr(cell) for cell in closure]
        parts.append("closure:" + _sha("|".join(cells))[:16])
    self_obj = getattr(fn, "__self__", None)  # bound methods
    if self_obj is not None:
        parts.append("self:" + _clean_repr(self_obj))
    if code is None and self_obj is None:
        # Callable object: its state is whatever repr exposes.
        parts.append("obj:" + _clean_repr(fn))
    return "|".join(parts)


def describe_grid(grid) -> List[Dict[str, Any]]:
    """Per-axis fingerprint: name, structural flag, size, value hash.

    Grids describe themselves (:meth:`repro.sweep.grid.ScenarioGrid.
    describe`); grid-shaped ducks without a ``describe`` get the same
    treatment axis by axis."""
    if hasattr(grid, "describe"):
        return grid.describe()
    from .grid import SweepAxis
    return [SweepAxis.describe(axis) for axis in grid.axes]


class CheckpointJournal:
    """On-disk journal of finished sweep units, keyed by sweep
    fingerprint (see the module docstring for the layout)."""

    def __init__(self, path: pathlib.Path):
        self.path = pathlib.Path(path)
        self._units = self.path / "units"

    @classmethod
    def open(cls, checkpoint_dir, fingerprint: Dict[str, Any]
             ) -> "CheckpointJournal":
        """Open (creating if needed) the journal for one sweep config."""
        canonical = json.dumps(fingerprint, sort_keys=True)
        key = _sha(canonical)[:20]
        path = pathlib.Path(checkpoint_dir) / key
        journal = cls(path)
        journal._units.mkdir(parents=True, exist_ok=True)
        manifest = path / "manifest.json"
        if not manifest.exists():
            # The fingerprint itself, for humans debugging a stale dir.
            tmp = manifest.with_suffix(f".tmp-{os.getpid()}")
            tmp.write_text(json.dumps({"key": key,
                                       "fingerprint": fingerprint},
                                      indent=2, sort_keys=True) + "\n")
            os.replace(tmp, manifest)
        return journal

    # -- unit records --------------------------------------------------------
    def load(self, unit_key: str) -> Optional[Dict[str, Any]]:
        """The journaled record for one unit: ``{"values": [...],
        "failures": [...], "partials": {...}}``, or ``None`` when
        absent/corrupt.  ``values`` is ``None`` (not a list) for units
        journaled by a ``keep_results=False`` streaming run — the
        fingerprint guarantees such records are only ever read back by
        an identically streaming runner."""
        file = self._units / f"{unit_key}.pkl"
        try:
            with open(file, "rb") as handle:
                record = pickle.load(handle)
        except FileNotFoundError:
            return None
        except Exception:
            # Truncated/corrupt (e.g. disk full mid-write of a temp
            # file that still got renamed somehow): re-run the unit.
            file.unlink(missing_ok=True)
            return None
        if not isinstance(record, dict) or "values" not in record:
            file.unlink(missing_ok=True)
            return None
        record.setdefault("failures", [])
        record.setdefault("partials", None)
        return record

    def store(self, unit_key: str, values: Optional[Sequence],
              failures: Sequence,
              partials: Optional[Dict[str, Any]] = None) -> None:
        """Atomically journal one finished unit.

        ``partials`` are the unit's streaming-reducer states (reducer
        name → mergeable partial); ``values`` is ``None`` under
        ``keep_results=False``, so the journal of a million-scenario
        streaming sweep stays as flat in memory and disk as the sweep
        itself."""
        file = self._units / f"{unit_key}.pkl"
        tmp = file.with_name(file.name + f".tmp-{os.getpid()}")
        with open(tmp, "wb") as handle:
            pickle.dump({"values": (None if values is None
                                    else list(values)),
                         "failures": list(failures),
                         "partials": partials}, handle)
        os.replace(tmp, file)

    def unit_keys(self) -> List[str]:
        """Keys of every journaled unit (sorted, for tests/benches)."""
        return sorted(p.stem for p in self._units.glob("*.pkl"))

    def __len__(self) -> int:
        return len(list(self._units.glob("*.pkl")))
